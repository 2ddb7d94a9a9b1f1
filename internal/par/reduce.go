package par

// Parallel reductions over index ranges, used for graph validation and
// statistics.

// SumInt64 returns the sum of f(i) for i in [0, n) computed with p workers.
// Each worker accumulates chunk sums into its own cache-line-padded cell,
// and the p cells are added up at the end.
func SumInt64(p, n int, f func(i int) int64) int64 {
	var sum int64
	if w, _ := chunking(p, n, DefaultGrain); n <= 0 || w == 1 {
		for i := 0; i < n; i++ {
			sum += f(i)
		}
		return sum
	}
	p = Workers(p)
	pad := PadBlock(nil, p)
	ForW(p, n, DefaultGrain, func(w, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		pad[w*PadStride] += s
	})
	for w := 0; w < p; w++ {
		sum += pad[w*PadStride]
	}
	return sum
}

// CountTrue returns how many i in [0, n) satisfy pred.
func CountTrue(p, n int, pred func(i int) bool) int64 {
	return SumInt64(p, n, func(i int) int64 {
		if pred(i) {
			return 1
		}
		return 0
	})
}
