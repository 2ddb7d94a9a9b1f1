package mst

import (
	"context"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/obs"
)

// TestObserverCountersMatchWorkMetrics cross-checks the two telemetry
// channels: the counters streamed to an Observer must agree with the
// WorkMetrics totals the algorithms have always reported.
func TestObserverCountersMatchWorkMetrics(t *testing.T) {
	g := gen.ErdosRenyi(1, 1000, 8000, gen.WeightUniform, 21)

	t.Run("llp-boruvka-rounds", func(t *testing.T) {
		rec := obs.NewFlightRecorder(0, 0)
		var m WorkMetrics
		if _, err := LLPBoruvka(g, Options{Workers: 2, Observer: rec, Metrics: &m}); err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter(obs.CtrRounds); got != m.Rounds {
			t.Errorf("observer rounds %d != WorkMetrics.Rounds %d", got, m.Rounds)
		}
		if got := rec.Counter(obs.CtrJumpRounds); got != m.JumpRounds {
			t.Errorf("observer jump rounds %d != WorkMetrics.JumpRounds %d", got, m.JumpRounds)
		}
		if got := rec.Counter(obs.CtrJumpAdvances); got != m.JumpAdvances {
			t.Errorf("observer jump advances %d != WorkMetrics.JumpAdvances %d", got, m.JumpAdvances)
		}
		if rec.GaugeMax(obs.GaugeLiveEdges) != int64(g.NumEdges()) {
			t.Errorf("live-edge gauge max %d, want first-round %d", rec.GaugeMax(obs.GaugeLiveEdges), g.NumEdges())
		}
	})

	t.Run("parallel-boruvka-rounds", func(t *testing.T) {
		rec := obs.NewFlightRecorder(0, 0)
		var m WorkMetrics
		if _, err := ParallelBoruvka(g, Options{Workers: 2, Observer: rec, Metrics: &m}); err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter(obs.CtrRounds); got != m.Rounds {
			t.Errorf("observer rounds %d != WorkMetrics.Rounds %d", got, m.Rounds)
		}
	})

	t.Run("llp-prim-heap", func(t *testing.T) {
		rec := obs.NewFlightRecorder(0, 0)
		var m WorkMetrics
		if _, err := LLPPrim(g, Options{Observer: rec, Metrics: &m}); err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter(obs.CtrHeapPush); got != m.HeapPushes {
			t.Errorf("observer heap pushes %d != WorkMetrics.HeapPushes %d", got, m.HeapPushes)
		}
		if got := rec.Counter(obs.CtrHeapPop); got != m.HeapPops {
			t.Errorf("observer heap pops %d != WorkMetrics.HeapPops %d", got, m.HeapPops)
		}
		if got := rec.Counter(obs.CtrEarlyFix); got != m.EarlyFixes {
			t.Errorf("observer early fixes %d != WorkMetrics.EarlyFixes %d", got, m.EarlyFixes)
		}
	})
}

// TestObserverSpansCoverAlgorithms checks every ctx-aware algorithm emits
// its top-level span, and that a collector carried on the context (instead
// of Options.Observer) is found too.
func TestObserverSpansCoverAlgorithms(t *testing.T) {
	g := gen.RoadNetwork(1, 16, 16, 0.2, 22)
	want := map[Algorithm]string{
		AlgLLPPrim:         "llp-prim",
		AlgLLPPrimParallel: "llp-prim-par",
		AlgLLPPrimAsync:    "llp-prim-async",
		AlgParallelBoruvka: "boruvka-par",
		AlgLLPBoruvka:      "llp-boruvka",
		AlgSemiringBoruvka: "semi-boruvka",
	}
	for alg, span := range want {
		rec := obs.NewFlightRecorder(0, 0)
		ctx := obs.NewContext(context.Background(), rec)
		if _, err := RunCtx(ctx, alg, g, Options{Workers: 2}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		found := false
		for _, s := range rec.SpanSummaries() {
			if s.Name == span {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: span %q not recorded via ctx-carried collector (got %v)", alg, span, spanNames(rec))
		}
	}
}

func spanNames(rec *obs.FlightRecorder) []string {
	var names []string
	for _, s := range rec.SpanSummaries() {
		names = append(names, s.Name)
	}
	return names
}

// TestObserverPrecedence: Options.Observer wins over a ctx-carried
// collector, so callers can scope one run's telemetry without rebuilding
// their context.
func TestObserverPrecedence(t *testing.T) {
	g := gen.RoadNetwork(1, 8, 8, 0.2, 23)
	direct := obs.NewFlightRecorder(0, 0)
	carried := obs.NewFlightRecorder(0, 0)
	ctx := obs.NewContext(context.Background(), carried)
	if _, err := RunCtx(ctx, AlgLLPBoruvka, g, Options{Workers: 2, Observer: direct}); err != nil {
		t.Fatal(err)
	}
	if direct.Counter(obs.CtrRounds) == 0 {
		t.Error("Options.Observer saw no rounds")
	}
	if carried.Counter(obs.CtrRounds) != 0 {
		t.Error("ctx-carried collector observed a run that set Options.Observer")
	}
}
