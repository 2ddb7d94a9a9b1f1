package sched

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"llpmst/internal/obs"
)

// Regression for the single-worker path: push appends through a
// closure-captured slice header while the drain loop reslices the same
// variable. A push during processing of the *last* item (stack just
// resliced to length 0) must still be observed by the loop condition —
// i.e. no pushed work may be lost, each item processed exactly once.
func TestForEachAsyncPushDuringLastItem(t *testing.T) {
	const chain = 100
	seen := make(map[int]int)
	ForEachAsync(1, []int{0}, func(x int, push func(int)) {
		seen[x]++
		// Every item is the last one on the stack when processed; each
		// pushes its successor, so the whole chain exists only through
		// pushes that happen at stack length zero.
		if x < chain {
			push(x + 1)
		}
	})
	for i := 0; i <= chain; i++ {
		if seen[i] != 1 {
			t.Fatalf("item %d processed %d times, want exactly once", i, seen[i])
		}
	}
}

// The same shape with a reallocation forced mid-run: pushes grow the stack
// past its initial capacity, so append moves the backing array while the
// loop is mid-iteration.
func TestForEachAsyncPushGrowsStack(t *testing.T) {
	var processed atomic.Int64
	initial := []int{0, 1, 2, 3}
	ForEachAsync(1, initial, func(x int, push func(int)) {
		processed.Add(1)
		if x < 64 {
			push(x + 64) // fan out well past the initial capacity
		}
	})
	// 4 initial + 4 pushed (only x<64 pushes; pushed items are >= 64).
	if got := processed.Load(); got != 8 {
		t.Fatalf("processed %d items, want 8", got)
	}
}

func TestForEachAsyncCtxDrainsWithoutCancel(t *testing.T) {
	for _, p := range []int{1, 4} {
		var n atomic.Int64
		err := new(Bag[int]).ForEachObs(context.Background(), p, []int{1, 2, 3}, func(x int, push func(int)) {
			if n.Add(1); x < 50 {
				push(x + 10)
			}
		}, nil)
		if err != nil {
			t.Fatalf("p=%d: unexpected error %v", p, err)
		}
	}
}

func TestForEachAsyncCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 4} {
		var n atomic.Int64
		err := new(Bag[int]).ForEachObs(ctx, p, []int{1, 2, 3}, func(x int, push func(int)) { n.Add(1) }, nil)
		if err == nil {
			t.Fatalf("p=%d: no error from pre-cancelled context", p)
		}
		// The strided poll fires on item index 0, so at most a handful of
		// items may slip through before the flag sticks; with 3 items and a
		// pre-cancelled context none should.
		if n.Load() != 0 {
			t.Fatalf("p=%d: pre-cancelled run processed %d items", p, n.Load())
		}
	}
}

func TestForEachAsyncCtxCancelMidRun(t *testing.T) {
	for _, p := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var n atomic.Int64
		start := time.Now()
		// Self-sustaining workload: every item pushes two more. Without
		// cancellation this never quiesces; the run can only end through ctx.
		err := new(Bag[int]).ForEachObs(ctx, p, []int{1}, func(x int, push func(int)) {
			if n.Add(1) == 2000 {
				cancel()
			}
			push(x + 1)
			push(x + 2)
		}, nil)
		if err == nil {
			t.Fatalf("p=%d: cancelled run returned nil error", p)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("p=%d: cancelled run took %v", p, elapsed)
		}
		cancel()
	}
}

func TestForEachAsyncCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var n atomic.Int64
		_ = new(Bag[int]).ForEachObs(ctx, 4, []int{1}, func(x int, push func(int)) {
			if n.Add(1) == 500 {
				cancel()
			}
			push(x + 1)
		}, nil)
		cancel()
	}
	// Workers are joined by wg.Wait before return, so the count settles
	// immediately modulo runtime noise.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: before=%d now=%d", before, g)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestForEachAsyncObsCounters(t *testing.T) {
	for _, p := range []int{1, 4} {
		rec := obs.NewFlightRecorder(0, 0)
		var processed atomic.Int64
		err := new(Bag[int]).ForEachObs(context.Background(), p, []int{0, 1, 2, 3}, func(x int, push func(int)) {
			processed.Add(1)
			if x < 100 {
				push(x + 4)
			}
		}, rec)
		if err != nil {
			t.Fatal(err)
		}
		// Conservation: every pushed item (initial included) is popped
		// exactly once at quiescence.
		if rec.Counter(obs.CtrSchedPush) != rec.Counter(obs.CtrSchedPop) {
			t.Fatalf("p=%d: push=%d pop=%d, want equal", p,
				rec.Counter(obs.CtrSchedPush), rec.Counter(obs.CtrSchedPop))
		}
		if rec.Counter(obs.CtrSchedPop) != processed.Load() {
			t.Fatalf("p=%d: pop=%d processed=%d", p, rec.Counter(obs.CtrSchedPop), processed.Load())
		}
		if rec.GaugeMax(obs.GaugeQueueDepth) < 1 {
			t.Fatalf("p=%d: queue depth gauge never reported", p)
		}
		if len(rec.SpanSummaries()) == 0 {
			t.Fatalf("p=%d: no scheduler span recorded", p)
		}
	}
}
