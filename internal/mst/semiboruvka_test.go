package mst

import (
	"math/rand"
	"runtime"
	"testing"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/obs"
)

// semiTestEdges builds a deterministic edge list with a deliberately tiny
// weight range so ties are everywhere: the packed (weight, id) key order is
// the only thing standing between the backend and a nondeterministic forest.
func semiTestEdges(n, m int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	// A random spanning tree first, so the graph is connected and the MSF
	// is a spanning tree of exactly n-1 edges.
	for v := 1; v < n; v++ {
		u := uint32(rng.Intn(v))
		edges = append(edges, graph.Edge{U: u, V: uint32(v), W: float32(rng.Intn(8))})
	}
	for len(edges) < m {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: float32(rng.Intn(8))})
	}
	return edges
}

// TestSemiringBoruvkaPermutedInputAgreesWithKruskal pins the determinism
// contract at its sharpest: shuffling the input edge list permutes the
// canonical edge ids, yet for every permutation the semiring backend must
// return edge-for-edge the same forest as Kruskal run on that same
// permutation — at every worker count. Heavy ties (weights drawn from
// {0..7}) make this fail loudly if the packed-key tie-break ever diverges
// from Kruskal's (weight, id) order.
func TestSemiringBoruvkaPermutedInputAgreesWithKruskal(t *testing.T) {
	const n, m = 600, 4000
	base := semiTestEdges(n, m, 91)
	workerSets := []int{1, 2, runtime.GOMAXPROCS(0)}
	for shuffle := int64(0); shuffle < 5; shuffle++ {
		edges := make([]graph.Edge, len(base))
		copy(edges, base)
		rand.New(rand.NewSource(1000+shuffle)).Shuffle(len(edges), func(i, j int) {
			edges[i], edges[j] = edges[j], edges[i]
		})
		g := graph.MustFromEdges(1, n, edges)
		oracle := Kruskal(g)
		if len(oracle.EdgeIDs) != n-1 {
			t.Fatalf("shuffle %d: oracle is not a spanning tree (%d edges)", shuffle, len(oracle.EdgeIDs))
		}
		for _, p := range workerSets {
			f := must(SemiringBoruvka(g, Options{Workers: p}))
			if !f.Equal(oracle) {
				t.Fatalf("shuffle %d w=%d: semi-boruvka forest differs from Kruskal on permuted input (%d vs %d edges, weight %g vs %g)",
					shuffle, p, len(f.EdgeIDs), len(oracle.EdgeIDs), f.Weight, oracle.Weight)
			}
		}
	}
}

// TestSemiringBoruvkaHubRows exercises the shard cutter on pathologically
// skewed row lengths: one hub whose row alone spans many shards
// (degree >> shardArcTarget), plus a long path so contraction takes several
// rounds. The row-blocked SpMV must still select the true minimum of the
// hub's row, and the shard counter must show the hub was actually split.
func TestSemiringBoruvkaHubRows(t *testing.T) {
	const leaves = 4 * shardArcTarget
	n := leaves + 1
	edges := make([]graph.Edge, 0, 2*leaves)
	for v := 1; v <= leaves; v++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(v), W: float32(1000 + v%97)})
	}
	for v := 1; v < leaves; v++ {
		edges = append(edges, graph.Edge{U: uint32(v), V: uint32(v + 1), W: float32(v % 13)})
	}
	g := graph.MustFromEdges(1, n, edges)
	oracle := Kruskal(g)
	rec := obs.NewFlightRecorder(0, 0)
	f := must(SemiringBoruvka(g, Options{Workers: 2, Observer: rec}))
	if !f.Equal(oracle) {
		t.Fatalf("hub graph: semi-boruvka differs from Kruskal (weight %g vs %g)", f.Weight, oracle.Weight)
	}
	// First round alone has 2m arcs; the hub row has 4*shardArcTarget of
	// them, so the cutter must have produced several shards.
	if got := rec.Counter(obs.CtrSemiShards); got < 4 {
		t.Errorf("semi.shards = %d; want >= 4 (hub row should span multiple shards)", got)
	}
}

// TestSemiringBoruvkaCounters checks the backend's telemetry contract: the
// first round scans every vertex row and both directed copies of every live
// edge, so the cumulative counters are bounded below by n and 2m, and the
// top-level span plus per-phase spans appear in a recording.
func TestSemiringBoruvkaCounters(t *testing.T) {
	g := gen.ErdosRenyi(1, 800, 6000, gen.WeightUniform, 92)
	rec := obs.NewFlightRecorder(0, 0)
	var m WorkMetrics
	if _, err := SemiringBoruvka(g, Options{Workers: 2, Observer: rec, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(obs.CtrSemiSpmvRows); got < int64(g.NumVertices()) {
		t.Errorf("semi.spmv.rows = %d; want >= n = %d", got, g.NumVertices())
	}
	if got := rec.Counter(obs.CtrSemiSpmvArcs); got < int64(2*g.NumEdges()) {
		t.Errorf("semi.spmv.arcs = %d; want >= 2m = %d", got, 2*g.NumEdges())
	}
	if got := rec.Counter(obs.CtrSemiShards); got <= 0 {
		t.Errorf("semi.shards = %d; want > 0", got)
	}
	if got := rec.Counter(obs.CtrRounds); got != m.Rounds || m.Rounds <= 0 {
		t.Errorf("observer rounds %d, WorkMetrics.Rounds %d; want equal and positive", got, m.Rounds)
	}
	want := map[string]bool{
		"semi-boruvka":          false,
		"semi-boruvka.build":    false,
		"semi-boruvka.spmv":     false,
		"semi-boruvka.hook":     false,
		"semi-boruvka.contract": false,
	}
	for _, s := range rec.SpanSummaries() {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("span %q not recorded (got %v)", name, spanNames(rec))
		}
	}
}
