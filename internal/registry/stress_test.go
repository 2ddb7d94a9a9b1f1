package registry

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"llpmst/internal/mst"
	"llpmst/internal/obs"
)

// TestSingleflightCollapses500ConcurrentSolves is the hot-graph acceptance
// property: 500 goroutines racing solves of the same (id, version) perform
// exactly one underlying solve — counter-verified through obs — return
// identical forests, and leak no goroutines. The solver parks until every
// racer has either launched the flight or joined it, so the collapse is
// exercised at full width, not just whatever slice of the 500 happened to
// overlap.
func TestSingleflightCollapses500ConcurrentSolves(t *testing.T) {
	const racers = 500
	before := runtime.NumGoroutine()

	rec := obs.NewFlightRecorder(0, 0)
	sol := &countingSolver{block: make(chan struct{})}
	r := New(Config{Solver: sol, Observer: rec})
	g := testGraph(30)
	oracle := mst.Kruskal(g)
	if _, err := r.Put("hot", g); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]SolveResult, racers)
	errs := make([]error, racers)
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = r.Solve(context.Background(), "t", "hot", 0, SolveOptions{})
		}(i)
	}
	close(start)

	// Hold the solver parked until all 500 are accounted for as the one
	// miss plus 499 joiners, then let the single flight finish.
	waitFor(t, func() bool {
		st := r.Stats()
		return st.Misses+st.Shared == racers
	})
	close(sol.block)
	wg.Wait()
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	leaders := 0
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		res := results[i]
		if res.Forest == nil || res.Forest.Weight != oracle.Weight || len(res.Forest.EdgeIDs) != len(oracle.EdgeIDs) {
			t.Fatalf("racer %d forest differs from oracle: %+v", i, res.Forest)
		}
		if res.Cached {
			t.Fatalf("racer %d served from the completed cache while the solver was parked", i)
		}
		if !res.Shared {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d racers launched flights, want exactly 1", leaders)
	}

	if got := sol.calls.Load(); got != 1 {
		t.Fatalf("underlying solver calls = %d, want 1", got)
	}
	// The same property, observed from outside through the obs counters.
	if got := rec.Counter(obs.CtrRegistrySolve); got != 1 {
		t.Fatalf("registry.solve counter = %d, want 1", got)
	}
	if got := rec.Counter(obs.CtrRegistryMiss); got != 1 {
		t.Fatalf("registry.cache.miss counter = %d, want 1", got)
	}
	if got := rec.Counter(obs.CtrRegistryShared); got != racers-1 {
		t.Fatalf("registry.singleflight.shared counter = %d, want %d", got, racers-1)
	}

	// A straggler arriving after the flight completed is a plain cache hit.
	res, err := r.Solve(context.Background(), "t", "hot", 0, SolveOptions{})
	if err != nil || !res.Cached {
		t.Fatalf("post-race solve: %+v, %v", res, err)
	}
	if got := rec.Counter(obs.CtrRegistryHit); got != 1 {
		t.Fatalf("registry.cache.hit counter = %d, want 1", got)
	}

	// No goroutine leaks: the count settles back to (about) the pre-run
	// level once the racers and the flight are done.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
