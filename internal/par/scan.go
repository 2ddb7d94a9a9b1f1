package par

// Prefix sums (scans). Parallel Boruvka's contraction step and the CSR
// builders need exclusive prefix sums over per-vertex counts; on large inputs
// these are computed with the standard two-pass blocked algorithm.

// ExclusiveScan replaces s with its exclusive prefix sum and returns the
// total. s[i] becomes sum(s[0:i]); the former grand total is the return
// value. Runs on p workers using a two-pass blocked scan when profitable.
func ExclusiveScan(p int, s []int64) int64 {
	n := len(s)
	p = Workers(p)
	const blockMin = 1 << 14
	if p == 1 || n < 2*blockMin {
		var sum int64
		for i := range s {
			v := s[i]
			s[i] = sum
			sum += v
		}
		return sum
	}
	nb := p * 4
	if max := n / blockMin; nb > max {
		nb = max
	}
	bsz := (n + nb - 1) / nb
	sums := make([]int64, nb)
	// Pass 1: per-block totals.
	ForEach(p, nb, 1, func(b int) {
		lo, hi := b*bsz, (b+1)*bsz
		if hi > n {
			hi = n
		}
		var t int64
		for i := lo; i < hi; i++ {
			t += s[i]
		}
		sums[b] = t
	})
	// Scan block totals sequentially (nb is tiny).
	var total int64
	for b := range sums {
		t := sums[b]
		sums[b] = total
		total += t
	}
	// Pass 2: local exclusive scan seeded with the block offset.
	ForEach(p, nb, 1, func(b int) {
		lo, hi := b*bsz, (b+1)*bsz
		if hi > n {
			hi = n
		}
		run := sums[b]
		for i := lo; i < hi; i++ {
			v := s[i]
			s[i] = run
			run += v
		}
	})
	return total
}
