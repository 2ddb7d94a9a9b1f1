package par

// Order-preserving compaction into caller-owned buffers. The *Into
// helpers split the input into one contiguous chunk per worker, have each
// worker count its survivors into a cache-line-padded counter block,
// prefix-sum the p counts sequentially (p is tiny), and scatter. The output
// is stable (input order), no channel or atomic append is involved, and a
// caller that reuses dst and pad performs zero allocations in steady state
// — the compaction discipline the Boruvka-family contraction loops need to
// stay allocation-free across rounds. A nil dst gets a fresh slice, for
// one-shot callers.

// PadStride is the int64 spacing between per-worker slots in a padded
// counter block: 8 int64s = 64 bytes, one cache line, so two workers
// bumping their counts never false-share.
const PadStride = 8

// PadBlock returns a counter block with one cache-line-padded slot for each
// of p workers, reusing pad when it is large enough.
func PadBlock(pad []int64, p int) []int64 {
	if need := p * PadStride; cap(pad) < need {
		return make([]int64, need)
	} else {
		return pad[:need]
	}
}

// chunkBounds splits [0, n) into p contiguous chunks and returns chunk w's
// bounds. The first n%p chunks are one element longer.
func chunkBounds(w, p, n int) (lo, hi int) {
	size, rem := n/p, n%p
	lo = w*size + min(w, rem)
	hi = lo + size
	if w < rem {
		hi++
	}
	return lo, hi
}

// scanPad turns the per-worker counts in pad into exclusive offsets and
// returns the total. Sequential: the block has p entries.
func scanPad(pad []int64, p int) int64 {
	var total int64
	for w := 0; w < p; w++ {
		c := pad[w*PadStride]
		pad[w*PadStride] = total
		total += c
	}
	return total
}

// FilterMapInto writes f's accepted transforms of src, in input order, into
// dst (grown when too small, resliced otherwise) and returns the filled
// slice. f must be pure: it is evaluated twice per element, once counting
// and once writing. pad is the padded per-worker counter block (see
// PadBlock; nil allocates a transient one). dst must not alias src.
func FilterMapInto[S, D any](p int, dst []D, src []S, pad []int64, f func(S) (D, bool)) []D {
	if Workers(p) == 1 || len(src) <= 1 {
		dst = dst[:0]
		for i := range src {
			if d, ok := f(src[i]); ok {
				dst = append(dst, d)
			}
		}
		return dst
	}
	return compactInto(p, len(src), dst, pad, func(i int) (D, bool) { return f(src[i]) })
}

// FilterInto is FilterMapInto with the identity transform: the elements of
// src satisfying keep, in input order. The sequential path appends directly
// (no adapter closure), so it is allocation-free with a sufficient dst.
func FilterInto[T any](p int, dst, src []T, pad []int64, keep func(T) bool) []T {
	if Workers(p) == 1 || len(src) <= 1 {
		dst = dst[:0]
		for i := range src {
			if keep(src[i]) {
				dst = append(dst, src[i])
			}
		}
		return dst
	}
	return compactInto(p, len(src), dst, pad, func(i int) (T, bool) { return src[i], keep(src[i]) })
}

// PackIndexInto writes the indices i in [0, n) satisfying keep, in
// increasing order, into dst, with pad as the per-worker counter block.
// Zero allocations when dst and pad are large enough.
func PackIndexInto(p, n int, dst []uint32, pad []int64, keep func(i int) bool) []uint32 {
	if Workers(p) == 1 || n <= 1 {
		dst = dst[:0]
		for i := 0; i < n; i++ {
			if keep(i) {
				dst = append(dst, uint32(i))
			}
		}
		return dst
	}
	return compactInto(p, n, dst, pad, func(i int) (uint32, bool) { return uint32(i), keep(i) })
}

// compactInto is the parallel engine of the *Into compactions: it writes
// the accepted f(i), i in [0, n), in index order into dst. Each worker owns
// one contiguous chunk: it counts its survivors into its padded slot, the
// p counts are prefix-summed sequentially, and each worker scatters from
// its offset.
func compactInto[D any](p, n int, dst []D, pad []int64, f func(i int) (D, bool)) []D {
	p = min(Workers(p), n)
	pad = PadBlock(pad, p)
	ForEach(p, p, 1, func(w int) {
		lo, hi := chunkBounds(w, p, n)
		var c int64
		for i := lo; i < hi; i++ {
			if _, ok := f(i); ok {
				c++
			}
		}
		pad[w*PadStride] = c
	})
	total := scanPad(pad, p)
	if int64(cap(dst)) < total {
		dst = make([]D, total)
	} else {
		dst = dst[:total]
	}
	ForEach(p, p, 1, func(w int) {
		lo, hi := chunkBounds(w, p, n)
		at := pad[w*PadStride]
		for i := lo; i < hi; i++ {
			if d, ok := f(i); ok {
				dst[at] = d
				at++
			}
		}
	})
	return dst
}

// Fill sets every element of s to v, in parallel with p workers. The
// sequential cases loop inline and allocate nothing.
func Fill[T any](p int, s []T, v T) {
	n := len(s)
	if Workers(p) == 1 || n <= 8192 {
		for i := range s {
			s[i] = v
		}
		return
	}
	For(p, n, 8192, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = v
		}
	})
}
