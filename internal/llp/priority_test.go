package llp

import (
	"math"
	"testing"

	"llpmst/internal/gen"
)

func TestPriorityDriverIsDijkstra(t *testing.T) {
	g := gen.RoadNetwork(1, 32, 32, 0.25, 17)
	want := dijkstraRef(g, 0)
	dist, st := SolveShortestPathsDijkstra(2, g, 0)
	for v := range dist {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
	// The Dijkstra property: each reachable non-source vertex settles in
	// exactly one advance.
	reachable := 0
	for _, d := range want {
		if !math.IsInf(d, 1) {
			reachable++
		}
	}
	if st.Advances != int64(reachable-1) {
		t.Fatalf("advances = %d, want %d (one per settled vertex)", st.Advances, reachable-1)
	}
}

func TestPriorityDriverDoesLessWorkThanSweeps(t *testing.T) {
	g := gen.RoadNetwork(1, 24, 24, 0.3, 23)
	spA := NewShortestPaths(g, 0)
	stAsync := Async(nil, 2, spA)
	spP := NewShortestPaths(g, 0)
	stPrio := RunPriority(2, spP, 0)
	dA, dP := spA.Distances(), spP.Distances()
	for v := range dA {
		if dA[v] != dP[v] {
			t.Fatalf("drivers disagree at %d", v)
		}
	}
	// Sweep drivers re-advance vertices as better offers arrive; the
	// Dijkstra order never does. On a high-diameter road graph the gap is
	// large.
	if stPrio.Advances >= stAsync.Advances {
		t.Fatalf("priority driver advances (%d) not below async driver (%d)",
			stPrio.Advances, stAsync.Advances)
	}
}

func TestPriorityDriverDeltaWindow(t *testing.T) {
	g := gen.ErdosRenyi(1, 300, 1500, gen.WeightInteger, 29)
	want := dijkstraRef(g, 0)
	for _, delta := range []uint64{0, math.Float64bits(500), ^uint64(0)} {
		sp := NewShortestPaths(g, 0)
		st := RunPriority(2, sp, delta)
		for v, d := range sp.Distances() {
			if d != want[v] {
				t.Fatalf("delta=%d: dist[%d] = %v, want %v", delta, v, d, want[v])
			}
		}
		if st.Rounds == 0 {
			t.Fatal("no rounds recorded")
		}
	}
	// Wider windows need no more rounds than delta=0.
	sp0 := NewShortestPaths(g, 0)
	st0 := RunPriority(2, sp0, 0)
	spInf := NewShortestPaths(g, 0)
	stInf := RunPriority(2, spInf, ^uint64(0))
	if stInf.Rounds > st0.Rounds {
		t.Fatalf("full-window rounds %d exceed delta=0 rounds %d", stInf.Rounds, st0.Rounds)
	}
}

func TestPriorityDriverComponents(t *testing.T) {
	g := gen.Disconnected(4, 25, 31)
	c := NewComponents(g)
	st := RunPriority(2, c, 0)
	wantLabels, _ := g.Components()
	got := c.Labels()
	for v := range got {
		for u := range got {
			if (got[v] == got[u]) != (wantLabels[v] == wantLabels[u]) {
				t.Fatalf("partition mismatch at %d,%d", v, u)
			}
		}
	}
	if st.Advances == 0 {
		t.Fatal("no advances")
	}
}

func TestPriorityDriverEmpty(t *testing.T) {
	g := gen.Star(1)
	sp := NewShortestPaths(g, 0)
	st := RunPriority(2, sp, 0)
	if st.Advances != 0 {
		t.Fatal("advances on trivial graph")
	}
}
