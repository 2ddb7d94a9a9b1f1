package mst

import (
	"testing"

	"llpmst/internal/gen"
)

func TestKKTManySeedsSameForest(t *testing.T) {
	g := gen.RMAT(1, 11, 8, gen.WeightUniform, 13)
	oracle := Kruskal(g)
	for seed := int64(0); seed < 10; seed++ {
		f := KKT(g, Options{Seed: seed})
		if !f.Equal(oracle) {
			t.Fatalf("seed %d: KKT differs from oracle", seed)
		}
	}
}

func TestKKTOnLargerGraphWithRecursion(t *testing.T) {
	// Big enough to recurse several levels past the base case.
	g := gen.ErdosRenyi(1, 1<<13, 1<<16, gen.WeightUniform, 3)
	var m WorkMetrics
	f := KKT(g, Options{Metrics: &m, Seed: 1})
	if !f.Equal(Kruskal(g)) {
		t.Fatal("KKT differs from oracle")
	}
	if m.Rounds < 3 {
		t.Fatalf("expected multiple recursion levels, got %d", m.Rounds)
	}
	if err := VerifyMinimum(g, f); err != nil {
		t.Fatal(err)
	}
}

func TestKKTDisconnectedAndDegenerate(t *testing.T) {
	d := gen.Disconnected(6, 50, 5)
	if !KKT(d, Options{}).Equal(Kruskal(d)) {
		t.Fatal("KKT wrong on disconnected graph")
	}
	star := gen.Star(2000)
	if !KKT(star, Options{}).Equal(Kruskal(star)) {
		t.Fatal("KKT wrong on star")
	}
}

func TestBoruvkaStepInvariants(t *testing.T) {
	g := gen.Cycle(100, 1)
	edges := make([]cedge, g.NumEdges())
	for i := range edges {
		e := g.Edge(uint32(i))
		edges[i] = cedge{u: e.U, v: e.V, key: g.EdgeKey(uint32(i))}
	}
	c := newKKTContraction(NewWorkspace(), 100)
	c.edges = edges
	chosen, ok := c.round(nil)
	nv, rest := c.nv, c.edges
	if !ok {
		t.Fatal("uncancellable round reported a cancel")
	}
	// Boruvka at least halves the vertex count on a graph with no isolated
	// vertices.
	if nv > 50 {
		t.Fatalf("nv = %d after one step on a 100-cycle, want <= 50", nv)
	}
	if len(chosen) < 50 {
		t.Fatalf("chose %d edges, want >= 50", len(chosen))
	}
	// Every surviving edge is a cross edge in the new space.
	for _, e := range rest {
		if e.u == e.v {
			t.Fatal("intra-component edge survived contraction")
		}
		if int(e.u) >= nv || int(e.v) >= nv {
			t.Fatal("edge endpoint outside contracted space")
		}
	}
	// Chosen edges are distinct.
	seen := map[uint32]bool{}
	for _, id := range chosen {
		if seen[id] {
			t.Fatalf("edge %d chosen twice", id)
		}
		seen[id] = true
	}
}

func TestKruskalEdgesBaseCase(t *testing.T) {
	edges := []cedge{
		{u: 0, v: 1, key: 30}, {u: 1, v: 2, key: 10}, {u: 0, v: 2, key: 20},
	}
	ids := kruskalEdges(3, edges)
	if len(ids) != 2 {
		t.Fatalf("%d edges, want 2", len(ids))
	}
	// Keys 10 and 20 win; their low 32 bits are the ids 10, 20.
	if ids[0] != 10 || ids[1] != 20 {
		t.Fatalf("ids %v, want [10 20]", ids)
	}
}
