package par

import "slices"

// Parallel sorting. Kruskal and the contraction steps sort edge arrays; on
// large inputs we use a chunked merge sort: p sorted runs produced with the
// stdlib sort, then pairwise parallel merges. Stable enough for our use
// (keys are unique packed (weight,id) values).

const sortSeqCutoff = 1 << 13

// SortUint64 sorts s ascending using up to p workers.
func SortUint64(p int, s []uint64) {
	p = Workers(p)
	if p == 1 || len(s) <= sortSeqCutoff {
		slices.Sort(s)
		return
	}
	mergeSortU64(p, s, make([]uint64, len(s)))
}

func mergeSortU64(p int, s, tmp []uint64) {
	if p <= 1 || len(s) <= sortSeqCutoff {
		slices.Sort(s)
		return
	}
	mid := len(s) / 2
	Do(2,
		func() { mergeSortU64(p/2, s[:mid], tmp[:mid]) },
		func() { mergeSortU64(p-p/2, s[mid:], tmp[mid:]) },
	)
	copy(tmp, s)
	mergeU64(tmp[:mid], tmp[mid:], s)
}

func mergeU64(a, b, out []uint64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}
