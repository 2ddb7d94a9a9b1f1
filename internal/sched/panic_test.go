package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// waitGoroutines polls until the goroutine count settles back to (about)
// before — the no-leak half of the panic contract.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: before=%d after=%d", before, runtime.NumGoroutine())
}

// seq returns [0, n) as initial work items.
func seq(n int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	return items
}

func TestForEachAsyncObsPanic(t *testing.T) {
	for _, p := range []int{1, 4} {
		before := runtime.NumGoroutine()
		rec := obs.NewFlightRecorder(0, 0)
		var processed atomic.Int64
		err := new(Bag[int]).ForEachObs(context.Background(), p, seq(10_000), func(item int, push func(int)) {
			if item == 5_000 {
				panic("async boom")
			}
			processed.Add(1)
		}, rec)
		if err == nil {
			t.Fatalf("p=%d: panic did not surface as an error", p)
		}
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("p=%d: error %T is not a *par.PanicError: %v", p, err, err)
		}
		if pe.Value != "async boom" {
			t.Fatalf("p=%d: Value = %v", p, pe.Value)
		}
		if rec.Counter(obs.CtrSchedPanics) < 1 {
			t.Fatalf("p=%d: CtrSchedPanics = %d, want >= 1", p, rec.Counter(obs.CtrSchedPanics))
		}
		waitGoroutines(t, before)
	}
}

func TestForEachAsyncPlainRepanics(t *testing.T) {
	before := runtime.NumGoroutine()
	defer waitGoroutines(t, before)
	defer func() {
		if _, ok := recover().(*par.PanicError); !ok {
			t.Fatal("ForEachAsync did not re-raise a *par.PanicError")
		}
	}()
	ForEachAsync(4, seq(10_000), func(item int, push func(int)) {
		if item == 5_000 {
			panic("plain boom")
		}
	})
	t.Fatal("panic did not propagate")
}

// TestForEachAsyncPanicBeatsCancel pins the precedence: a run that both
// panicked and was cancelled reports the panic.
func TestForEachAsyncPanicBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := new(Bag[int]).ForEachObs(ctx, 4, seq(10_000), func(item int, push func(int)) {
		if item == 5_000 {
			cancel()
			panic("boom then cancel")
		}
	}, nil)
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want the panic to win over cancellation", err)
	}
}

// panicGaugeCol panics on the first Gauge call, which with p >= 2 happens
// only inside a worker's counter flush — exercising the guard that boxes
// panics raised by user collectors during the flush itself.
type panicGaugeCol struct {
	obs.Nop
	fired atomic.Bool
}

func (c *panicGaugeCol) Gauge(obs.Gauge, int64) {
	if c.fired.CompareAndSwap(false, true) {
		panic("collector boom")
	}
}

func TestForEachAsyncCollectorPanicInFlush(t *testing.T) {
	before := runtime.NumGoroutine()
	col := &panicGaugeCol{}
	err := new(Bag[int]).ForEachObs(context.Background(), 4, seq(5_000), func(item int, push func(int)) {}, col)
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("collector panic in worker flush not boxed: err=%v", err)
	}
	waitGoroutines(t, before)
}

// A panic in an ordered level batch is re-raised as a *par.PanicError once
// the batch's workers have joined, at one worker and at several, and leaves
// no goroutine behind. The ordered scheduler's Obs entry point is gone; the
// test keeps its name and drives the plain ForEachOrdered.
func TestForEachOrderedObsPanic(t *testing.T) {
	for _, p := range []int{1, 4} {
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				pe, ok := recover().(*par.PanicError)
				if !ok {
					t.Fatalf("p=%d: ForEachOrdered did not re-raise a *par.PanicError", p)
				}
				if pe.Value != "ordered boom" {
					t.Fatalf("p=%d: Value = %v", p, pe.Value)
				}
			}()
			ForEachOrdered(p, seq(10_000),
				func(x int) uint64 { return uint64(x / 100) },
				func(item int, push func(int)) {
					if item == 7_000 {
						panic("ordered boom")
					}
				})
			t.Fatalf("p=%d: panic did not propagate", p)
		}()
		waitGoroutines(t, before)
	}
}

func TestForEachOrderedPlainRepanics(t *testing.T) {
	defer func() {
		if _, ok := recover().(*par.PanicError); !ok {
			t.Fatal("ForEachOrdered did not re-raise a *par.PanicError")
		}
	}()
	ForEachOrdered(4, seq(10_000),
		func(x int) uint64 { return uint64(x) },
		func(item int, push func(int)) {
			if item == 9_999 {
				panic("ordered plain boom")
			}
		})
	t.Fatal("panic did not propagate")
}
