package par

import "testing"

// TestPerCallAllocationCeilings pins how much one fork-join call may
// allocate at one and two workers, so no change to the runtime adds
// per-call allocations unnoticed. The ceilings are the counts measured
// before the loops were rebuilt over Spawn; every call here has at most
// two chunks of work, so it measures dispatch alone.
func TestPerCallAllocationCeilings(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	noop := func(lo, hi int) {}
	noopW := func(w, lo, hi int) {}
	collect := func(w, lo, hi int, out []int) []int { return out }
	thunk := func() {}
	for _, c := range []struct {
		name     string
		ceilings [2]float64 // at 1 and 2 workers
		call     func(p int)
	}{
		{"For", [2]float64{1, 6}, func(p int) { For(p, 2, 1, noop) }},
		{"ForW", [2]float64{1, 8}, func(p int) { ForW(p, 2, 1, noopW) }},
		{"Do", [2]float64{0, 7}, func(p int) { Do(p, thunk, thunk) }},
		{"ForCollectIntoW", [2]float64{0, 12}, func(p int) { ForCollectIntoW(p, 2, 1, nil, collect) }},
	} {
		for i, p := range []int{1, 2} {
			if got := testing.AllocsPerRun(200, func() { c.call(p) }); got > c.ceilings[i] {
				t.Errorf("%s at %d workers: %v allocations per call, ceiling %v", c.name, p, got, c.ceilings[i])
			}
		}
	}
}
