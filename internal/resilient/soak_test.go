package resilient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"llpmst/internal/fault"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
)

// soakGraph draws one random graph from a seeded morphology family,
// mirroring the runtime's differential stress corpus: sparse graphs (deep
// trees, long chains), dense graphs (write-min contention), disconnected
// graphs (per-component restarts), and multigraphs (parallel edges and
// heavy weight ties).
func soakGraph(family string, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	var n, m int
	switch family {
	case "sparse":
		n = 50 + rng.Intn(250)
		m = n + rng.Intn(n/2+1)
	case "dense":
		n = 30 + rng.Intn(90)
		m = n * (3 + rng.Intn(6))
	case "disconnected":
		n = 100 + rng.Intn(200)
		m = n / 2
	default: // "multi"
		n = 5 + rng.Intn(20)
		m = n * 10
	}
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		var w float32
		if family == "multi" {
			w = float32(rng.Intn(4))
		} else {
			w = rng.Float32() * 100
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: w})
	}
	return graph.MustFromEdges(1, n, edges)
}

// TestDifferentialSoakUnderChaos is the resilience counterpart of the
// runtime's differential stress suite: the full 52-graph corpus is pushed
// through the resilient pipeline while seeded chaos panics and delays both
// portfolio legs. The contract under fire: every answer is either the exact
// Kruskal-canonical forest or a typed error — never a silent partial
// result. Run under -race this doubles as the race-cleanliness proof for
// the hedged execution paths.
func TestDifferentialSoakUnderChaos(t *testing.T) {
	families := []string{"sparse", "dense", "disconnected", "multi"}
	perFamily := 13 // 4*13 = 52 graphs
	// Every leg has a 30% chance to panic and a 30% chance to stall 1..2ms
	// — enough churn to exercise retry, breaker, hedge, and fallback paths
	// across the corpus.
	plan := fault.Plan{
		Seed:    7,
		Default: fault.Probs{Drop: 0.3, Delay: 0.3, MaxDelay: 2},
	}
	if testing.Short() {
		// 16 graphs are too few for the dice to trip a breaker every time,
		// so the short run scripts its strikes: every LLP-Prim-Async leg
		// panics and every LLP-Boruvka leg stalls past the hedge delay. The
		// four multi graphs lead with LLP-Prim-Async, so its breaker trips
		// whatever the scheduling, while LLP-Boruvka answers every graph.
		perFamily = 4
		plan = fault.Plan{Arcs: map[int64]fault.Probs{
			ChaosArc(mst.AlgLLPPrimAsync): {Drop: 1},
			ChaosArc(mst.AlgLLPBoruvka):   {Delay: 1, MaxDelay: 2},
		}}
	}

	r := New(Config{
		Workers:         2,
		DefaultDeadline: 30 * time.Second,
		HedgeDelay:      500 * time.Microsecond,
		VerifyRate:      0.25,
		// Short cooldown so breakers tripped by chaos panics recover and
		// keep probing across the corpus instead of parking every solve on
		// the fallback.
		BreakerCooldown: 50 * time.Millisecond,
		Chaos:           &Chaos{Plan: plan, Unit: time.Millisecond},
	})

	sawFallback, sawHedge := false, false
	for _, family := range families {
		for i := 0; i < perFamily; i++ {
			seed := int64(1000*i) + int64(len(family))
			t.Run(fmt.Sprintf("%s/%d", family, i), func(t *testing.T) {
				g := soakGraph(family, seed)
				oracle := mst.Kruskal(g)
				if err := mst.CheckForest(g, oracle); err != nil {
					t.Fatalf("kruskal oracle invalid: %v", err)
				}
				res, err := r.Solve(context.Background(), g)
				if err != nil {
					// A typed, inspectable failure is an acceptable outcome
					// under chaos; anything untyped is a contract breach.
					if !errors.Is(err, ErrOverloaded) &&
						!errors.Is(err, context.DeadlineExceeded) &&
						!errors.Is(err, context.Canceled) {
						t.Fatalf("untyped error under chaos: %v", err)
					}
					return
				}
				if res.Forest == nil {
					t.Fatal("nil forest with nil error")
				}
				if !res.Forest.Equal(oracle) {
					t.Fatalf("%s answered a non-canonical forest (%d vs %d edges, weight %g vs %g)",
						res.Algorithm, len(res.Forest.EdgeIDs), len(oracle.EdgeIDs),
						res.Forest.Weight, oracle.Weight)
				}
				sawFallback = sawFallback || res.FallbackUsed
				sawHedge = sawHedge || res.Hedged
			})
		}
	}

	st := r.Stats()
	if st.BreakerTrips == 0 {
		t.Errorf("chaos at 30%% panic rate should have tripped a breaker at least once: %+v", st)
	}
	if !sawHedge && !sawFallback {
		t.Errorf("soak exercised neither the hedge nor the fallback path: %+v", st)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := r.Drain(dctx); err != nil {
		t.Fatalf("drain did not finish: %v", err)
	}
}
