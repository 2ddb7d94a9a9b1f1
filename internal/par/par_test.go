package par

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", Workers(0))
	}
	if Workers(-3) < 1 {
		t.Fatalf("Workers(-3) = %d, want >= 1", Workers(-3))
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want 7", got)
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 5, 1000, 10000} {
			hits := make([]int32, n)
			For(p, n, 64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d visited %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForEach(t *testing.T) {
	const n = 4096
	var sum atomic.Int64
	ForEach(4, n, 16, func(i int) { sum.Add(int64(i)) })
	want := int64(n*(n-1)) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(4, 0, 0, func(lo, hi int) { called = true })
	For(4, -5, 0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for non-positive n")
	}
}

func TestDoRunsAllThunks(t *testing.T) {
	var count atomic.Int32
	thunks := make([]func(), 17)
	for i := range thunks {
		thunks[i] = func() { count.Add(1) }
	}
	Do(4, thunks...)
	if count.Load() != 17 {
		t.Fatalf("ran %d thunks, want 17", count.Load())
	}
}

func TestPackKeyOrderMatchesWeightOrder(t *testing.T) {
	f := func(a, b float32, ida, idb uint32) bool {
		a, b = float32(math.Abs(float64(a))), float32(math.Abs(float64(b)))
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) || math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		ka, kb := PackKey(a, ida), PackKey(b, idb)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return (ka < kb) == (ida < idb) && (ka == kb) == (ida == idb)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPackKeyRoundTrip(t *testing.T) {
	f := func(w float32, id uint32) bool {
		w = float32(math.Abs(float64(w)))
		if math.IsNaN(float64(w)) {
			return true
		}
		k := PackKey(w, id)
		return KeyWeight(k) == w && KeyID(k) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyAccessors(t *testing.T) {
	k := PackKey(3.5, 42)
	if KeyWeight(k) != 3.5 || KeyID(k) != 42 {
		t.Fatalf("accessors: got (%v, %v), want (3.5, 42)", KeyWeight(k), KeyID(k))
	}
	if k >= InfKey {
		t.Fatal("real key must be below InfKey")
	}
}

func TestWriteMinConcurrent(t *testing.T) {
	cell := InfKey
	const n = 10000
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = PackKey(rand.Float32()*100, uint32(i))
	}
	min := slices.Min(vals)
	ForEach(8, n, 8, func(i int) { WriteMin(&cell, vals[i]) })
	if cell != min {
		t.Fatalf("WriteMin result %d, want %d", cell, min)
	}
}

func TestWriteMinReturnsWhetherImproved(t *testing.T) {
	cell := PackKey(5, 0)
	if WriteMin(&cell, PackKey(7, 0)) {
		t.Fatal("WriteMin claimed improvement with larger value")
	}
	if !WriteMin(&cell, PackKey(3, 0)) {
		t.Fatal("WriteMin denied improvement with smaller value")
	}
	if w := KeyWeight(cell); w != 3 {
		t.Fatalf("cell weight %v, want 3", w)
	}
}

func TestFillKeys(t *testing.T) {
	s := make([]uint64, 100000)
	FillKeys(4, s, InfKey)
	for i, v := range s {
		if v != InfKey {
			t.Fatalf("s[%d] = %d, want InfKey", i, v)
		}
	}
}

func TestExclusiveScanMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 1 << 15, 1<<16 + 7} {
		s := make([]int64, n)
		want := make([]int64, n)
		var sum int64
		for i := range s {
			s[i] = int64(rand.Intn(10))
			want[i] = sum
			sum += s[i]
		}
		got := ExclusiveScan(4, s)
		if got != sum {
			t.Fatalf("n=%d: total %d, want %d", n, got, sum)
		}
		if !slices.Equal(s, want) {
			t.Fatalf("n=%d: scan mismatch", n)
		}
	}
}

func TestPack(t *testing.T) {
	n := 1 << 15
	src := make([]int, n)
	keep := make([]bool, n)
	var want []int
	for i := range src {
		src[i] = i
		keep[i] = i%3 == 0
		if keep[i] {
			want = append(want, i)
		}
	}
	got := FilterInto(4, nil, src, nil, func(x int) bool { return keep[x] })
	if !slices.Equal(got, want) {
		t.Fatalf("pack mismatch: got %d elems, want %d", len(got), len(want))
	}
}

func TestPackIndex(t *testing.T) {
	got := PackIndexInto(4, 10, nil, nil, func(i int) bool { return i%2 == 1 })
	want := []uint32{1, 3, 5, 7, 9}
	if !slices.Equal(got, want) {
		t.Fatalf("PackIndexInto = %v, want %v", got, want)
	}
}

func TestSortUint64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 1 << 16} {
		s := make([]uint64, n)
		for i := range s {
			s[i] = rand.Uint64()
		}
		want := slices.Clone(s)
		slices.Sort(want)
		SortUint64(4, s)
		if !slices.Equal(s, want) {
			t.Fatalf("n=%d: parallel sort differs from sequential", n)
		}
	}
}

func TestSortUint64Property(t *testing.T) {
	f := func(s []uint64) bool {
		got := slices.Clone(s)
		SortUint64(3, got)
		want := slices.Clone(s)
		slices.Sort(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSumInt64(t *testing.T) {
	n := 1 << 15
	got := SumInt64(4, n, func(i int) int64 { return int64(i) })
	if want := int64(n) * int64(n-1) / 2; got != want {
		t.Fatalf("SumInt64 = %d, want %d", got, want)
	}
}

func TestCountTrueAndAny(t *testing.T) {
	n := 10000
	if got := CountTrue(4, n, func(i int) bool { return i%10 == 0 }); got != 1000 {
		t.Fatalf("CountTrue = %d, want 1000", got)
	}
	if CountTrue(4, n, func(i int) bool { return i == n-1 }) != 1 {
		t.Fatal("CountTrue missed the last index")
	}
	if CountTrue(4, n, func(i int) bool { return false }) != 0 {
		t.Fatal("CountTrue found a nonexistent index")
	}
	if CountTrue(4, 0, func(i int) bool { return true }) != 0 {
		t.Fatal("CountTrue on empty range")
	}
}

func TestForCollect(t *testing.T) {
	got := ForCollect(4, 10000, 64, func(lo, hi int, out []int) []int {
		for i := lo; i < hi; i++ {
			if i%7 == 0 {
				out = append(out, i)
			}
		}
		return out
	})
	slices.Sort(got)
	var want []int
	for i := 0; i < 10000; i += 7 {
		want = append(want, i)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ForCollect: got %d elems, want %d", len(got), len(want))
	}
	if r := ForCollect(4, 0, 0, func(lo, hi int, out []int) []int { return append(out, 1) }); r != nil {
		t.Fatal("ForCollect on empty range returned elements")
	}
}
