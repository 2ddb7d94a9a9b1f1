package mst

import (
	"cmp"
	"math/rand"
	"slices"

	"llpmst/internal/graph"
	"llpmst/internal/llp"
	"llpmst/internal/obs"
	"llpmst/internal/par"
	"llpmst/internal/unionfind"
)

// KKT implements the Karger–Klein–Tarjan randomized expected-linear-time
// minimum spanning forest algorithm — the §III lineage ("a randomized
// linear time algorithm was proposed by Karger... later demonstrated to run
// in linear time... with Klein, Tarjan") the paper names as the comparison
// target for its future work. Each level:
//
//  1. runs two Boruvka contraction steps (every chosen edge is an MSF edge;
//     the vertex count at least halves per step);
//  2. samples the surviving edges independently with probability 1/2;
//  3. recursively computes the sample's MSF F;
//  4. discards every F-heavy edge — an edge whose endpoints F connects by a
//     path of everywhere-lighter edges cannot be in the MSF (cycle
//     property), checked with the same binary-lifting path-maximum index
//     the verifier uses;
//  5. recurses on the F-light survivors.
//
// The sampling lemma bounds the expected number of F-light edges by the
// contracted vertex count, giving expected O(m + n) work. The result is
// still the unique canonical MSF: randomness affects only the work, never
// the output (tests run multiple seeds against the Kruskal oracle).
//
// The coin flips come from Options.Seed, so runs are reproducible.
func KKT(g *graph.CSR, opts Options) *Forest {
	n, m := g.NumVertices(), g.NumEdges()
	ws, release := opts.workspace()
	defer release()
	edges := make([]cedge, m)
	for i := 0; i < m; i++ {
		e := g.Edge(uint32(i))
		edges[i] = cedge{u: e.U, v: e.V, key: par.PackKey(e.W, uint32(i))}
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x6b6b74)) // "kkt"
	k := &kktState{rng: rng, marks: make([]bool, m), c: newKKTContraction(ws, n)}
	ids := k.msf(n, edges)
	if opts.Metrics != nil {
		*opts.Metrics = WorkMetrics{Rounds: k.levels}
	}
	return newForest(g, ids)
}

// kktBaseSize is the subproblem size below which sort-and-scan Kruskal
// beats another level of sampling.
const kktBaseSize = 1 << 10

type kktState struct {
	rng    *rand.Rand
	marks  []bool // indexed by original edge id; scratch for set membership
	c      *contraction
	levels int64
}

// newKKTContraction returns the contraction KKT's Boruvka steps run on:
// LLP-Boruvka's round at one worker with sequential pointer jumping (the
// subproblem parallelism, if any, belongs to the caller), recording
// nothing.
func newKKTContraction(ws *Workspace, n int) *contraction {
	c := newContraction(ws, n, Options{Workers: 1, JumpMode: llp.ModeSequential}, obs.Nop{}, &llpBoruvkaNames)
	c.sel = c.writeMinKernel()
	return c
}

// msf returns the original edge ids of the minimum spanning forest of the
// given contracted multigraph (vertices [0, nv), edges with canonical keys).
func (k *kktState) msf(nv int, edges []cedge) []uint32 {
	k.levels++
	if len(edges) == 0 {
		return nil
	}
	if len(edges) <= kktBaseSize {
		return kruskalEdges(nv, edges)
	}
	// Step 1: two Boruvka contraction rounds.
	var chosen []uint32
	for step := 0; step < 2 && len(edges) > 0; step++ {
		// The survivors go to a fresh slice: edges (e.g. the caller's
		// sample) is read again after contraction.
		k.c.nv, k.c.edges = nv, edges
		picked, _ := k.c.round(make([]cedge, 0, len(edges)/2))
		chosen = append(chosen, picked...)
		nv, edges = k.c.nv, k.c.edges
	}
	if len(edges) == 0 {
		return chosen
	}
	// Step 2: sample edges with probability 1/2.
	sample := make([]cedge, 0, len(edges)/2+16)
	var bits uint64
	var left int
	for _, e := range edges {
		if left == 0 {
			bits = k.rng.Uint64()
			left = 64
		}
		if bits&1 == 1 {
			sample = append(sample, e)
		}
		bits >>= 1
		left--
	}
	// Step 3: the sample's MSF, recursively.
	fIDs := k.msf(nv, sample)
	// Step 4: rebuild F in the current vertex space and drop F-heavy edges.
	for _, id := range fIDs {
		k.marks[id] = true
	}
	fedges := make([]cedge, 0, len(fIDs))
	for _, e := range sample {
		if k.marks[par.KeyID(e.key)] {
			fedges = append(fedges, e)
		}
	}
	idx := newPathMaxFromEdges(nv, fedges)
	light := make([]cedge, 0, nv)
	for _, e := range edges {
		if k.marks[par.KeyID(e.key)] {
			light = append(light, e) // F edges are light by definition
			continue
		}
		pathMax, sameTree := idx.pathMax(e.u, e.v)
		if !sameTree || e.key < pathMax {
			light = append(light, e)
		}
	}
	for _, id := range fIDs {
		k.marks[id] = false
	}
	// Step 5: recurse on the light survivors.
	return append(chosen, k.msf(nv, light)...)
}

// kruskalEdges is the base case: sort-and-scan Kruskal over a contracted
// edge list, returning original edge ids. It sorts edges in place.
func kruskalEdges(nv int, edges []cedge) []uint32 {
	slices.SortFunc(edges, func(a, b cedge) int { return cmp.Compare(a.key, b.key) })
	uf := unionfind.New(nv)
	var ids []uint32
	for _, e := range edges {
		if uf.Union(e.u, e.v) {
			ids = append(ids, par.KeyID(e.key))
		}
	}
	return ids
}
