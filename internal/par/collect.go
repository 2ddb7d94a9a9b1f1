package par

// ForCollect runs body over chunks of [0, n) with p workers; each chunk
// appends results to a fresh local buffer that body returns, and ForCollect
// concatenates all buffers into one slice. Chunk order within the result is
// unspecified (parallel frontier expansion does not need it).
func ForCollect[T any](p, n, grain int, body func(lo, hi int, out []T) []T) []T {
	return ForCollectIntoW(p, n, grain, nil, func(_, lo, hi int, out []T) []T { return body(lo, hi, out) })
}

// ForCollectIntoW is ForCollect accumulating into buf's storage, with the
// worker's index passed to body (see ForW): body(w, lo, hi, out) may
// attribute its side effects — span timings, counter deltas — to worker w.
// The sequential fast path (one worker, or the whole range below the grain)
// passes w = 0 and appends into buf[:0] directly, and the parallel path
// concatenates the per-chunk buffers into buf when its capacity suffices.
// A caller that keeps the returned slice's capacity for the next call
// (buf = ForCollectIntoW(p, n, g, buf, body)[:0] ...) reaches zero
// steady-state allocations on the sequential path. buf's contents are
// overwritten; it must not alias anything body reads.
func ForCollectIntoW[T any](p, n, grain int, buf []T, body func(w, lo, hi int, out []T) []T) []T {
	if n <= 0 {
		return buf[:0]
	}
	workers, g := chunking(p, n, grain)
	if workers == 1 {
		return body(0, 0, n, buf[:0])
	}
	results := make(chan []T, (n+g-1)/g)
	ForW(p, n, g, func(w, lo, hi int) {
		results <- body(w, lo, hi, nil)
	})
	close(results)
	var total int
	bufs := make([][]T, 0, len(results))
	for b := range results {
		bufs = append(bufs, b)
		total += len(b)
	}
	out := buf[:0]
	if cap(out) < total {
		out = make([]T, 0, total)
	}
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}
