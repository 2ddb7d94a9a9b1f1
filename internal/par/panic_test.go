package par

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count settles back to (about)
// before, failing the test otherwise — the no-leak half of the panic
// contract.
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

func TestForPanicRethrow(t *testing.T) {
	before := runtime.NumGoroutine()
	var processed atomic.Int64
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("For swallowed the worker panic")
			}
			pe, ok := r.(*PanicError)
			if !ok {
				t.Fatalf("re-raised %T, want *PanicError", r)
			}
			if pe.Value != "boom" {
				t.Fatalf("Value = %v, want boom", pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "TestForPanicRethrow") {
				t.Fatalf("Stack does not show the panic site:\n%s", pe.Stack)
			}
		}()
		For(4, 100_000, 64, func(lo, hi int) {
			if lo == 1024 {
				panic("boom")
			}
			processed.Add(int64(hi - lo))
		})
	}()
	waitGoroutines(t, before)
	if processed.Load() == 0 {
		t.Fatal("no chunks processed before the rethrow")
	}
}

func TestForEachPanicValueIsError(t *testing.T) {
	sentinel := errors.New("worker exploded")
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("re-raised %T, want *PanicError", r)
		}
		// Unwrap exposes an error-typed panic value to errors.Is.
		if !errors.Is(pe, sentinel) {
			t.Fatalf("errors.Is failed to reach %v through %v", sentinel, pe)
		}
	}()
	ForEach(4, 50_000, 64, func(i int) {
		if i == 30_000 {
			panic(sentinel)
		}
	})
	t.Fatal("panic did not propagate")
}

func TestDoPanicItemIndex(t *testing.T) {
	before := runtime.NumGoroutine()
	defer waitGoroutines(t, before)
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok {
			t.Fatal("Do did not re-raise a *PanicError")
		}
		if pe.Item != 2 {
			t.Fatalf("Item = %d, want 2 (the panicking thunk's index)", pe.Item)
		}
	}()
	Do(4,
		func() {},
		func() {},
		func() { panic("thunk 2") },
		func() {},
	)
	t.Fatal("panic did not propagate")
}

func TestAsPanicErrorPassthrough(t *testing.T) {
	orig := &PanicError{Value: "x", Item: 7, Stack: []byte("s")}
	if got := AsPanicError(orig, 99); got != orig {
		t.Fatalf("AsPanicError rewrapped an existing *PanicError: %+v", got)
	}
	got := AsPanicError("y", 3)
	if got.Value != "y" || got.Item != 3 || len(got.Stack) == 0 {
		t.Fatalf("AsPanicError wrapped wrong: %+v", got)
	}
}

func TestPanicBoxFirstWinsAndCounts(t *testing.T) {
	var box PanicBox
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			box.Capture(i, i)
		}(i)
	}
	wg.Wait()
	if box.Err() == nil {
		t.Fatal("no panic recorded")
	}
	if n := box.Count(); n != 8 {
		t.Fatalf("Count = %d, want 8", n)
	}
	box.Capture(nil, 0) // nil recover result is a no-op
	if n := box.Count(); n != 8 {
		t.Fatalf("Count after nil capture = %d, want 8", n)
	}
	var empty PanicBox
	if empty.Err() != nil || empty.Count() != 0 {
		t.Fatal("zero-value box not empty")
	}
	empty.Rethrow() // must be a no-op
}

func TestSpawnJoinsAllWorkersAndReturnsFirstPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	var ran atomic.Int64
	var box PanicBox
	pe := Spawn(4, &box, func(w int) {
		ran.Add(1)
		if w == 3 {
			panic("spawn boom")
		}
	})
	if ran.Load() != 4 {
		t.Fatalf("ran %d workers, want 4", ran.Load())
	}
	if pe == nil || pe.Value != "spawn boom" || pe.Item != -1 {
		t.Fatalf("Spawn returned %+v, want the worker panic with item -1", pe)
	}
	if box.Count() != 1 {
		t.Fatalf("Count = %d, want 1", box.Count())
	}
	waitGoroutines(t, before)
	var clean PanicBox
	if pe := Spawn(3, &clean, func(int) {}); pe != nil {
		t.Fatalf("clean Spawn returned %v", pe)
	}
}
