// Package graph provides the undirected weighted graph representation shared
// by every algorithm in this repository: a compressed-sparse-row (CSR)
// structure with a canonical edge list, plus builders, I/O, validation and
// statistics. It plays the role of the graph layers of Galois and GBBS that
// the paper's implementations sit on.
//
// Weights are finite non-negative float32 values. The paper assumes distinct
// edge weights; rather than requiring that of inputs, every comparison in
// this repository uses the packed total order (weight, edge id) from
// internal/par, which makes the minimum spanning forest unique for any input.
package graph

import (
	"fmt"
	"math"
	"sync"

	"llpmst/internal/par"
)

// Edge is one undirected edge. U and V are endpoint vertex ids, W the weight.
type Edge struct {
	U, V uint32
	W    float32
}

// CSR is an immutable undirected weighted graph in compressed sparse row
// form. Each undirected edge {u,v} appears as two directed arcs, u→v and
// v→u, both carrying the same canonical edge id. The zero value is an empty
// graph.
type CSR struct {
	n       int
	offsets []int64   // len n+1; arcs of v are [offsets[v], offsets[v+1])
	targets []uint32  // len 2m; arc heads
	weights []float32 // len 2m; arc weights (duplicated per direction)
	eids    []uint32  // len 2m; canonical undirected edge id per arc
	edges   []Edge    // len m; edges[eid] is the canonical edge

	mweOnce sync.Once
	mwe     []uint64 // lazily computed minimum-arc-key per vertex
}

// NumVertices returns n, the number of vertices.
func (g *CSR) NumVertices() int { return g.n }

// NumEdges returns m, the number of undirected edges.
func (g *CSR) NumEdges() int { return len(g.edges) }

// NumArcs returns 2m, the number of directed arcs stored.
func (g *CSR) NumArcs() int { return len(g.targets) }

// Degree returns the number of arcs out of v (multi-edges counted).
func (g *CSR) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// ArcRange returns the half-open arc index range of vertex v. Arc index a
// addresses Target(a), ArcWeight(a) and ArcEdgeID(a).
func (g *CSR) ArcRange(v uint32) (lo, hi int64) {
	return g.offsets[v], g.offsets[v+1]
}

// Target returns the head vertex of arc a.
func (g *CSR) Target(a int64) uint32 { return g.targets[a] }

// ArcWeight returns the weight of arc a.
func (g *CSR) ArcWeight(a int64) float32 { return g.weights[a] }

// ArcEdgeID returns the canonical undirected edge id of arc a.
func (g *CSR) ArcEdgeID(a int64) uint32 { return g.eids[a] }

// ArcKey returns the packed (weight, edge id) total-order key of arc a.
func (g *CSR) ArcKey(a int64) uint64 {
	return par.PackKey(g.weights[a], g.eids[a])
}

// Edge returns the canonical edge with the given id.
func (g *CSR) Edge(id uint32) Edge { return g.edges[id] }

// Edges returns the canonical edge list. The caller must not modify it.
func (g *CSR) Edges() []Edge { return g.edges }

// EdgeKey returns the packed total-order key of edge id.
func (g *CSR) EdgeKey(id uint32) uint64 {
	return par.PackKey(g.edges[id].W, id)
}

// Neighbors calls fn(arc index, target, weight, edge id) for every arc out of
// v, in storage order. Convenience wrapper; hot loops should use ArcRange
// with direct accessor calls instead.
func (g *CSR) Neighbors(v uint32, fn func(a int64, to uint32, w float32, eid uint32)) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	for a := lo; a < hi; a++ {
		fn(a, g.targets[a], g.weights[a], g.eids[a])
	}
}

// MinArcKeys returns mwe[v], the packed (weight, edge id) key of the
// minimum-weight edge incident to each vertex (par.InfKey for isolated
// vertices), computing it once with p workers on first use and caching it.
// The paper's LLP-Prim "requires every vertex to know its minimum weight
// edge" and notes the set "can be computed when the graph is input" (§V.A);
// caching on the immutable graph realizes that accounting. The caller must
// not modify the returned slice.
func (g *CSR) MinArcKeys(p int) []uint64 {
	g.mweOnce.Do(func() {
		mwe := make([]uint64, g.n)
		par.ForEach(p, g.n, 512, func(v int) {
			best := par.InfKey
			lo, hi := g.offsets[v], g.offsets[v+1]
			for a := lo; a < hi; a++ {
				if k := par.PackKey(g.weights[a], g.eids[a]); k < best {
					best = k
				}
			}
			mwe[v] = best
		})
		g.mwe = mwe
	})
	return g.mwe
}

// TotalWeight returns the sum of all edge weights in float64 precision.
func (g *CSR) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += float64(e.W)
	}
	return s
}

// FromEdges builds a CSR graph with n vertices from the given undirected
// edge list using p workers. Self-loops are dropped (they can never be in a
// spanning forest); parallel edges are kept — the packed total order
// disambiguates them. Endpoints must be < n. The input slice is retained as
// the canonical edge list (with self-loops compacted away); callers must not
// modify it afterwards.
func FromEdges(p, n int, edges []Edge, opts ...BuildOption) (*CSR, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	p = par.Workers(p)
	// Validate endpoints and drop self-loops.
	bad := par.CountTrue(p, len(edges), func(i int) bool {
		e := edges[i]
		return int(e.U) >= n || int(e.V) >= n || e.W < 0 || e.W != e.W ||
			math.IsInf(float64(e.W), 0)
	})
	if bad > 0 {
		return nil, fmt.Errorf("graph: %d edges with out-of-range endpoints or invalid weights (n=%d)", bad, n)
	}
	loops := par.CountTrue(p, len(edges), func(i int) bool { return edges[i].U == edges[i].V })
	if loops > 0 {
		edges = par.FilterInto(p, nil, edges, nil, func(e Edge) bool { return e.U != e.V })
	}
	m := len(edges)
	g := &CSR{n: n, edges: edges}
	// Degree histogram.
	deg := make([]int64, n+1)
	if p == 1 || m < 1<<15 {
		for _, e := range edges {
			deg[e.U]++
			deg[e.V]++
		}
	} else {
		degAtomic := make([]int32, n)
		par.ForEach(p, m, 8192, func(i int) {
			e := edges[i]
			atomicAdd32(&degAtomic[e.U])
			atomicAdd32(&degAtomic[e.V])
		})
		par.ForEach(p, n, 8192, func(v int) { deg[v] = int64(degAtomic[v]) })
	}
	total := par.ExclusiveScan(p, deg[:n])
	deg[n] = total
	g.offsets = deg
	g.targets = make([]uint32, 2*m)
	g.weights = make([]float32, 2*m)
	g.eids = make([]uint32, 2*m)
	// Fill arcs. Use a per-vertex cursor; sequential fill is simplest and
	// the builders are not on the measured path (the harness builds once,
	// runs many trials).
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for i, e := range edges {
		a := cursor[e.U]
		cursor[e.U]++
		g.targets[a], g.weights[a], g.eids[a] = e.V, e.W, uint32(i)
		b := cursor[e.V]
		cursor[e.V]++
		g.targets[b], g.weights[b], g.eids[b] = e.U, e.W, uint32(i)
	}
	if cfg.sortAdj {
		par.ForEach(p, n, 64, func(v int) {
			lo, hi := g.offsets[v], g.offsets[v+1]
			sortArcs(g.targets[lo:hi], g.weights[lo:hi], g.eids[lo:hi])
		})
	}
	return g, nil
}

// MustFromEdges is FromEdges that panics on error; for tests and generators
// whose inputs are constructed correct.
func MustFromEdges(p, n int, edges []Edge, opts ...BuildOption) *CSR {
	g, err := FromEdges(p, n, edges, opts...)
	if err != nil {
		panic(err)
	}
	return g
}

// BuildOption configures FromEdges.
type BuildOption func(*buildConfig)

type buildConfig struct {
	sortAdj bool
}

// WithSortedAdjacency sorts each adjacency list by (target, weight). Useful
// for reproducible traversal orders in tests.
func WithSortedAdjacency() BuildOption {
	return func(c *buildConfig) { c.sortAdj = true }
}

func sortArcs(targets []uint32, weights []float32, eids []uint32) {
	// Insertion sort: adjacency lists are short in our workloads, and this
	// path is test/debug only.
	for i := 1; i < len(targets); i++ {
		t, w, e := targets[i], weights[i], eids[i]
		j := i - 1
		for j >= 0 && (targets[j] > t || (targets[j] == t && weights[j] > w)) {
			targets[j+1], weights[j+1], eids[j+1] = targets[j], weights[j], eids[j]
			j--
		}
		targets[j+1], weights[j+1], eids[j+1] = t, w, e
	}
}
