package sched

import (
	"context"
	"sync/atomic"
	"testing"

	"llpmst/internal/obs"
)

// A reused Bag must behave exactly like a fresh one: state from one run
// (stack storage, panic box, counters) must not leak into the next.
func TestBagReuseAcrossRuns(t *testing.T) {
	var bag Bag[int]
	for _, p := range []int{1, 4} {
		for run := 0; run < 5; run++ {
			var n atomic.Int64
			err := bag.ForEachObs(context.Background(), p, []int{0, 1, 2}, func(x int, push func(int)) {
				n.Add(1)
				if x < 30 {
					push(x + 3)
				}
			}, obs.Nop{})
			if err != nil {
				t.Fatalf("p=%d run %d: %v", p, run, err)
			}
			// Items 0..32, each exactly once.
			if got := n.Load(); got != 33 {
				t.Fatalf("p=%d run %d: processed %d items, want 33", p, run, got)
			}
		}
	}
}

// A panic in one run must surface as that run's error and must not poison a
// later run on the same Bag.
func TestBagReuseAfterPanic(t *testing.T) {
	var bag Bag[int]
	err := bag.ForEachObs(context.Background(), 1, []int{1, 2, 3}, func(x int, push func(int)) {
		if x == 2 {
			panic("boom")
		}
	}, obs.Nop{})
	if err == nil {
		t.Fatal("panicking run returned nil error")
	}
	var n atomic.Int64
	err = bag.ForEachObs(context.Background(), 1, []int{1, 2, 3}, func(x int, push func(int)) {
		n.Add(1)
	}, obs.Nop{})
	if err != nil {
		t.Fatalf("clean run after panic: %v", err)
	}
	if n.Load() != 3 {
		t.Fatalf("clean run processed %d items, want 3", n.Load())
	}
}

// The warm single-worker path must be allocation-free: all run state lives
// in Bag fields, so the only allocations in a steady-state caller are the
// caller's own. This is what keeps llp-prim-async at O(1) allocations per
// invocation with a reused workspace.
func TestBagSingleWorkerSteadyStateAllocs(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	var bag Bag[int]
	initial := []int{0}
	process := func(x int, push func(int)) {
		if x < 100 {
			push(x + 1)
		}
	}
	ctx := context.Background()
	// Warm up: first run grows the stack storage and builds the cached
	// closures.
	if err := bag.ForEachObs(ctx, 1, initial, process, obs.Nop{}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := bag.ForEachObs(ctx, 1, initial, process, obs.Nop{}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm single-worker Bag run allocated %v times per run", n)
	}
}

// The Bag engine honors cancellation like the one-shot entry points.
func TestBagCancellation(t *testing.T) {
	var bag Bag[int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n atomic.Int64
	err := bag.ForEachObs(ctx, 1, []int{1}, func(x int, push func(int)) { n.Add(1) }, obs.Nop{})
	if err == nil {
		t.Fatal("pre-cancelled Bag run returned nil error")
	}
	if n.Load() != 0 {
		t.Fatalf("pre-cancelled Bag run processed %d items", n.Load())
	}
}

// TestBagPerCallAllocationCeilings pins what one warm Bag run may allocate
// at one and two workers (the counts measured before the engine was
// rebuilt over par.Spawn), so the two-worker path cannot gain per-call
// allocations unnoticed either.
func TestBagPerCallAllocationCeilings(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	var bag Bag[int]
	items := []int{0, 1}
	process := func(int, func(int)) {}
	ctx := context.Background()
	for _, c := range []struct {
		p       int
		ceiling float64
	}{{1, 0}, {2, 15}} {
		if err := bag.ForEachObs(ctx, c.p, items, process, obs.Nop{}); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			_ = bag.ForEachObs(ctx, c.p, items, process, obs.Nop{})
		}); got > c.ceiling {
			t.Errorf("warm Bag run at %d workers: %v allocations per call, ceiling %v", c.p, got, c.ceiling)
		}
	}
}
