package llp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
)

var allModes = []struct {
	name string
	mode Mode
}{
	{"sequential", ModeSequential},
	{"round", ModeRound},
	{"async", ModeAsync},
}

// counterPred is a toy lattice: G[j] must reach target[j], advancing by 1.
type counterPred struct {
	g, target []int
}

func (c *counterPred) N() int               { return len(c.g) }
func (c *counterPred) Forbidden(j int) bool { return c.g[j] < c.target[j] }
func (c *counterPred) Advance(j int)        { c.g[j]++ }

func TestDriversReachFixpointOnToyLattice(t *testing.T) {
	for _, m := range allModes {
		t.Run(m.name, func(t *testing.T) {
			target := []int{0, 3, 1, 7, 2}
			pred := &counterPred{g: make([]int, 5), target: target}
			var st Stats
			if m.mode == ModeSequential {
				st = Run(m.mode, 1, pred)
			} else {
				// Parallel drivers need independent cells — true here.
				st = Run(m.mode, 4, pred)
			}
			for j, v := range pred.g {
				if v != target[j] {
					t.Fatalf("G[%d] = %d, want %d", j, v, target[j])
				}
			}
			if st.Advances != 13 {
				t.Fatalf("Advances = %d, want 13", st.Advances)
			}
			if st.Rounds < 2 {
				t.Fatalf("Rounds = %d, want >= 2", st.Rounds)
			}
		})
	}
}

func TestPointerJumpMakesStars(t *testing.T) {
	// A chain 0 <- 1 <- 2 <- ... <- n-1 (parent[i] = i-1, parent[0] = 0).
	for _, m := range allModes {
		t.Run(m.name, func(t *testing.T) {
			n := 1000
			parent := make([]uint32, n)
			for i := 1; i < n; i++ {
				parent[i] = uint32(i - 1)
			}
			st := Run(m.mode, 4, NewPointerJump(parent))
			for i, p := range parent {
				if p != 0 {
					t.Fatalf("parent[%d] = %d, want 0", i, p)
				}
			}
			if st.Advances == 0 {
				t.Fatal("no advances recorded")
			}
			// Pointer jumping doubles distances: O(log n) rounds expected
			// for the parallel drivers (plus the final empty round).
			if m.mode == ModeRound && st.Rounds > 13 {
				t.Fatalf("round driver took %d rounds on a 1000-chain, want <= 13", st.Rounds)
			}
		})
	}
}

func TestPointerJumpRandomForests(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		// Random forest: parent[i] < i or self.
		parent := make([]uint32, n)
		for i := 1; i < n; i++ {
			if rng.Intn(4) == 0 {
				parent[i] = uint32(i) // root
			} else {
				parent[i] = uint32(rng.Intn(i))
			}
		}
		// Reference roots.
		root := func(x int) uint32 {
			for parent[x] != uint32(x) {
				x = int(parent[x])
			}
			return uint32(x)
		}
		want := make([]uint32, n)
		for i := range want {
			want[i] = root(i)
		}
		cp := make([]uint32, n)
		copy(cp, parent)
		Run(ModeAsync, 4, NewPointerJump(cp))
		for i := range cp {
			if cp[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func dijkstraRef(g *graph.CSR, src uint32) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		best := -1
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < math.Inf(1) && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		if best < 0 {
			return dist
		}
		done[best] = true
		lo, hi := g.ArcRange(uint32(best))
		for a := lo; a < hi; a++ {
			if d := dist[best] + float64(g.ArcWeight(a)); d < dist[g.Target(a)] {
				dist[g.Target(a)] = d
			}
		}
	}
}

func TestShortestPathsMatchesDijkstra(t *testing.T) {
	g := gen.ErdosRenyi(1, 200, 800, gen.WeightInteger, 7)
	want := dijkstraRef(g, 0)
	for _, m := range allModes {
		t.Run(m.name, func(t *testing.T) {
			got, st := SolveShortestPaths(m.mode, 4, g, 0)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
				}
			}
			if st.Rounds == 0 {
				t.Fatal("no rounds recorded")
			}
		})
	}
}

func TestShortestPathsPaperGraph(t *testing.T) {
	g := gen.PaperFigure1()
	dist, _ := SolveShortestPaths(ModeSequential, 1, g, 0)
	want := []float64{0, 5, 4, 12, 14}
	for v, d := range dist {
		if d != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, d, want[v])
		}
	}
}

func TestShortestPathsDisconnected(t *testing.T) {
	g := gen.Disconnected(2, 5, 1)
	dist, _ := SolveShortestPaths(ModeAsync, 2, g, 0)
	for v := 5; v < 10; v++ {
		if !math.IsInf(dist[v], 1) {
			t.Fatalf("dist[%d] = %v, want +inf", v, dist[v])
		}
	}
	for v := 0; v < 5; v++ {
		if math.IsInf(dist[v], 1) {
			t.Fatalf("dist[%d] unreachable within its component", v)
		}
	}
}

func TestComponentsMatchBFS(t *testing.T) {
	g := gen.Disconnected(5, 20, 3)
	wantLabels, wantCount := g.Components()
	for _, m := range allModes {
		t.Run(m.name, func(t *testing.T) {
			got, _ := SolveComponents(m.mode, 4, g)
			// Labels must induce the same partition.
			seen := map[uint32]bool{}
			for v := range got {
				seen[got[v]] = true
				for u := range got {
					same := wantLabels[v] == wantLabels[u]
					if (got[v] == got[u]) != same {
						t.Fatalf("partition mismatch at %d,%d", v, u)
					}
				}
			}
			if len(seen) != wantCount {
				t.Fatalf("%d labels, want %d", len(seen), wantCount)
			}
			// Min-label: every label is the min id of its component.
			for v := range got {
				if got[v] > uint32(v) {
					t.Fatalf("label[%d] = %d exceeds vertex id", v, got[v])
				}
			}
		})
	}
}

func TestComponentsOnConnectedGraph(t *testing.T) {
	g := gen.RoadNetwork(1, 20, 20, 0.2, 1)
	labels, _ := SolveComponents(ModeAsync, 4, g)
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("label[%d] = %d, want 0 on a connected graph", v, l)
		}
	}
}

func TestEmptyPredicates(t *testing.T) {
	pred := &counterPred{}
	st := Sequential(nil, pred)
	if st.Advances != 0 {
		t.Fatal("advances on empty lattice")
	}
	st = RoundParallel(nil, 2, pred)
	if st.Advances != 0 {
		t.Fatal("advances on empty lattice (round)")
	}
	st = Async(nil, 2, pred)
	if st.Advances != 0 {
		t.Fatal("advances on empty lattice (async)")
	}
}

// cancellingPred is a lattice of n independent cells, each forbidden until
// advanced once; its first Advance cancels the run's context.
type cancellingPred struct {
	advanced []bool
	calls    int64
	cancel   context.CancelFunc
}

func (c *cancellingPred) N() int               { return len(c.advanced) }
func (c *cancellingPred) Forbidden(j int) bool { return !c.advanced[j] }
func (c *cancellingPred) Advance(j int) {
	if c.calls == 0 {
		c.cancel()
	}
	c.calls++
	c.advanced[j] = true
}

// An interrupted round must count only the advances it made: the round
// driver stops advancing its forbidden batch at the next strided poll, and
// Stats.Advances must agree with what the predicate saw.
func TestRoundDriverCountsOnlyAdvancesMade(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pred := &cancellingPred{advanced: make([]bool, 5000), cancel: cancel}
	st, err := RunCtx(ctx, ModeRound, 1, pred)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if pred.calls >= int64(len(pred.advanced)) {
		t.Fatalf("the cancelled round advanced all %d forbidden indices", pred.calls)
	}
	if st.Advances != pred.calls {
		t.Fatalf("Stats.Advances = %d, but the predicate saw %d Advance calls", st.Advances, pred.calls)
	}
}
