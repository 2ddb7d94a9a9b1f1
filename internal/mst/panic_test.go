package mst

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"llpmst/internal/gen"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// bombCollector panics on the fuse-th collector call. Observers are
// arbitrary user code invoked from inside the algorithms (driver side) and
// from scheduler workers (counter flushes), so a panicking one exercises
// the whole panic-isolation path end to end.
type bombCollector struct {
	obs.Nop
	fuse atomic.Int64
}

func (b *bombCollector) tick() {
	if b.fuse.Add(-1) == 0 {
		panic("observer bomb")
	}
}

func (b *bombCollector) Span(name string) func()  { b.tick(); return func() { b.tick() } }
func (b *bombCollector) Count(obs.Counter, int64) { b.tick() }
func (b *bombCollector) Gauge(obs.Gauge, int64)   { b.tick() }

// TestPanicSurfacesAsErrorWithSoundForest is the acceptance test for panic
// isolation: for each of the five parallel algorithms, an injected panic
// surfaces as an error wrapping *par.PanicError (the process survives), the
// partial forest contains only canonical-MSF edges, and no goroutines leak.
func TestPanicSurfacesAsErrorWithSoundForest(t *testing.T) {
	g := gen.ErdosRenyi(1, 2000, 20000, gen.WeightUniform, 21)
	oracle := Kruskal(g)
	inMSF := make(map[uint32]bool, len(oracle.EdgeIDs))
	for _, id := range oracle.EdgeIDs {
		inMSF[id] = true
	}
	before := runtime.NumGoroutine()
	for _, alg := range ctxAlgs {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			// Several fuse settings land the panic in different phases
			// (span open, mid-run gauges/counters, final flush).
			for _, fuse := range []int64{1, 3, 7, 50} {
				bomb := &bombCollector{}
				bomb.fuse.Store(fuse)
				f, err := Run(alg, g, Options{Workers: 4, Observer: bomb})
				if bomb.fuse.Load() > 0 {
					// The run finished before the fuse burned down; the
					// clean-path contract must then hold.
					if err != nil || !f.Equal(oracle) {
						t.Fatalf("fuse=%d: unexploded run wrong (err=%v)", fuse, err)
					}
					continue
				}
				if err == nil {
					t.Fatalf("fuse=%d: panic did not surface as an error", fuse)
				}
				var pe *par.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("fuse=%d: error %T does not wrap *par.PanicError: %v", fuse, err, err)
				}
				if pe.Value != "observer bomb" {
					t.Fatalf("fuse=%d: Value = %v", fuse, pe.Value)
				}
				if f == nil {
					t.Fatalf("fuse=%d: no partial forest returned", fuse)
				}
				for _, id := range f.EdgeIDs {
					if !inMSF[id] {
						t.Fatalf("fuse=%d: partial forest contains non-MSF edge %d", fuse, id)
					}
				}
			}
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestPanicErrorShape pins the error message contract: algorithm name,
// progress fraction, and the wrapped panic.
func TestPanicErrorShape(t *testing.T) {
	pe := &par.PanicError{Value: "x", Item: 3}
	err := panicked(AlgLLPBoruvka, pe, 5, 9)
	want := "mst: llp-boruvka aborted by worker panic with 5/9 forest edges chosen: par: worker panic on item 3: x"
	if err.Error() != want {
		t.Fatalf("error = %q\nwant    %q", err.Error(), want)
	}
	var got *par.PanicError
	if !errors.As(err, &got) || got != pe {
		t.Fatal("wrapped *par.PanicError not reachable via errors.As")
	}
}

// spanBomb panics on its fuse-th Span call and ignores everything else.
type spanBomb struct {
	obs.Nop
	fuse atomic.Int64
}

func (b *spanBomb) Span(string) func() {
	if b.fuse.Add(-1) == 0 {
		panic("span bomb")
	}
	return func() {}
}

// TestPanicsReleaseRecorderSpanSlots: a long-lived FlightRecorder (a
// server's) shared with an observer that panics mid-run must get back every
// span slot the aborted runs opened. A phase span left open by the unwinding
// panic would hold its cursor slot for good; after 64 such runs every later
// span on that cursor would be dropped, and a clean run would record none of
// its phases.
func TestPanicsReleaseRecorderSpanSlots(t *testing.T) {
	g := gen.ErdosRenyi(1, 3000, 12000, gen.WeightUniform, 5)
	for _, alg := range ctxAlgs {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", alg, p), func(t *testing.T) {
				rec := obs.NewFlightRecorder(p, 1<<16)
				for i := 0; i < 70; i++ {
					bomb := &spanBomb{}
					bomb.fuse.Store(int64(2 + i%6))
					_, err := Run(alg, g, Options{Workers: p, Observer: obs.Tee(rec, bomb)})
					var pe *par.PanicError
					if err != nil && !errors.As(err, &pe) {
						t.Fatalf("run %d: %v", i, err)
					}
				}
				// Every cursor must still hold all of its span slots: probe
				// spans only reach the histogram when they got one.
				var ends []func()
				for w := -1; w < p; w++ {
					for i := 0; i < 64; i++ {
						ends = append(ends, rec.Worker(w).Span("probe"))
					}
				}
				for _, end := range ends {
					end()
				}
				if s, _ := rec.SpanSummary("probe"); s.Count != int64(len(ends)) {
					t.Fatalf("%d of %d probe spans found a free slot: the panicked runs leaked the rest", s.Count, len(ends))
				}
			})
		}
	}

	// The scenario that exposed the leak: the 4th span of every run panics,
	// then a clean run records all of its contraction phases.
	rec := obs.NewFlightRecorder(1, 1<<16)
	for i := 0; i < 70; i++ {
		bomb := &spanBomb{}
		bomb.fuse.Store(4)
		if _, err := LLPBoruvka(g, Options{Workers: 1, Observer: obs.Tee(rec, bomb)}); err == nil {
			t.Fatalf("run %d: the bomb did not go off", i)
		}
	}
	var m WorkMetrics
	if _, err := LLPBoruvka(g, Options{Workers: 1, Observer: rec, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	s, _ := rec.SpanSummary("llp-boruvka.contract")
	if m.Rounds < 2 || s.Count != m.Rounds {
		t.Fatalf("clean run recorded %d of its %d contract spans", s.Count, m.Rounds)
	}
}
