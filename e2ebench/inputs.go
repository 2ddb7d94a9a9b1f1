package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/stream"
)

// graphInput is one generated graph, its upload body and its Kruskal oracle.
type graphInput struct {
	name   string
	g      *graph.CSR
	body   []byte // .llpg encoding, exactly as uploaded
	oracle *mst.Forest
}

// newGraphInput encodes g and computes its oracle in the load process.
func newGraphInput(name string, g *graph.CSR) (*graphInput, error) {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		return nil, fmt.Errorf("encode %s: %w", name, err)
	}
	return &graphInput{name: name, g: g, body: buf.Bytes(), oracle: mst.Kruskal(g)}, nil
}

// denseGraph generates the cold-dense workload's graph: R-MAT (the Graph500
// Kronecker generator) at scale 15 and edge factor 32, 32,768 vertices and
// about 10⁶ edges. With m ≥ 16n it lands on the "very dense" branch of the
// runner's density split (resilient.pick).
func denseGraph(seed int64) (*graphInput, error) {
	return newGraphInput("dense", gen.RMAT(runtime.GOMAXPROCS(0), 15, 32, gen.WeightUniform, seed))
}

// padGraph is a 64-vertex grid whose solves cost the runner next to
// nothing; set-up solves it to move the runner's verify stride.
func padGraph(seed int64) (*graphInput, error) {
	return newGraphInput("pad", gen.RoadNetwork(1, 8, 8, 0.2, seed))
}

// liveSet is a client-side multiset of live stream edges with distinct
// weights, so the minimum spanning forest is unique and the server's forest
// can be compared edge for edge with a Kruskal oracle.
type liveSet struct {
	n     int
	rng   *rand.Rand
	edges []graph.Edge
	used  map[float32]bool
}

func newLiveSet(n int, seed int64) *liveSet {
	return &liveSet{n: n, rng: rand.New(rand.NewSource(seed)), used: make(map[float32]bool)}
}

// weight draws a weight in (0, 1) never drawn before by this set.
func (s *liveSet) weight() float32 {
	for {
		w := s.rng.Float32()
		if w > 0 && !s.used[w] {
			s.used[w] = true
			return w
		}
	}
}

func (s *liveSet) insert(e graph.Edge) stream.Op {
	s.edges = append(s.edges, e)
	return stream.Op{U: e.U, V: e.V, W: e.W}
}

// deleteAt removes live edge i (order is not preserved).
func (s *liveSet) deleteAt(i int) stream.Op {
	e := s.edges[i]
	last := len(s.edges) - 1
	s.edges[i] = s.edges[last]
	s.edges = s.edges[:last]
	return stream.Op{Delete: true, U: e.U, V: e.V, W: e.W}
}

func (s *liveSet) randomEdge() graph.Edge {
	u := uint32(s.rng.Intn(s.n))
	v := uint32(s.rng.Intn(s.n - 1))
	if v >= u {
		v++
	}
	return graph.Edge{U: u, V: v, W: s.weight()}
}

// mixedBatch draws one batch of random inserts and deletes. Inserts
// dominate until the set reaches target edges, then the mix is even, so
// the live graph stays near target.
func (s *liveSet) mixedBatch(ops, target int) []stream.Op {
	out := make([]stream.Op, 0, ops)
	for range ops {
		pIns := 0.5
		if len(s.edges) < target {
			pIns = 0.8
		}
		if len(s.edges) == 0 || s.rng.Float64() < pIns {
			out = append(out, s.insert(s.randomEdge()))
		} else {
			out = append(out, s.deleteAt(s.rng.Intn(len(s.edges))))
		}
	}
	return out
}

// oracleForest is the canonical forest of the live set, as sorted
// (u<v, w) triples.
func (s *liveSet) oracleForest() ([]graph.Edge, error) {
	g, err := graph.FromEdges(1, s.n, slices.Clone(s.edges))
	if err != nil {
		return nil, err
	}
	f := mst.Kruskal(g)
	out := make([]graph.Edge, len(f.EdgeIDs))
	for i, id := range f.EdgeIDs {
		out[i] = g.Edge(id)
	}
	return canonicalEdges(out), nil
}

// canonicalEdges orients every edge u<v and sorts by (w, u, v).
func canonicalEdges(es []graph.Edge) []graph.Edge {
	for i, e := range es {
		if e.U > e.V {
			es[i].U, es[i].V = e.V, e.U
		}
	}
	slices.SortFunc(es, func(a, b graph.Edge) int {
		switch {
		case a.W != b.W:
			if a.W < b.W {
				return -1
			}
			return 1
		case a.U != b.U:
			return int(a.U) - int(b.U)
		default:
			return int(a.V) - int(b.V)
		}
	})
	return es
}

// Stream sizing. The mixed stream is a sparse random graph whose updates
// are cheap for the engine, so WAL append, fsync and quorum shipping
// dominate its latency. The churn stream is two dense clusters joined by a
// few heavy bridges: deleting the lightest bridge splits a component whose
// smaller side has far more than ReplaceScanBudget (4096) incidences, so
// every such delete falls back to recomputing the whole component.
const (
	mixedVertices = 4096
	mixedTarget   = 8192 // live edges the mixed stream hovers around
	mixedOps      = 16   // ops per mixed batch
	churnCluster  = 2048 // vertices per cluster
	churnDegree   = 4    // cluster edges per vertex
	churnBridges  = 4
	preloadOps    = 4096 // ops per preload batch
)

// The stream inputs' seeds, derived from the run's seed.
func mixedSeed(seed int64) int64 { return seed*7 + 1 }
func churnSeed(seed int64) int64 { return seed*7 + 2 }

// churnInput is the bridge-churn adversary's graph.
type churnInput struct {
	live   *liveSet
	bridge graph.Edge // the lightest bridge: deleted, then re-inserted
}

func newChurnInput(seed int64) *churnInput {
	s := newLiveSet(2*churnCluster, seed)
	for c := range 2 {
		off := uint32(c * churnCluster)
		perm := s.rng.Perm(churnCluster)
		// A random recursive tree keeps the cluster connected...
		for v := 1; v < churnCluster; v++ {
			u := perm[s.rng.Intn(v)]
			s.insert(graph.Edge{U: off + uint32(perm[v]), V: off + uint32(u), W: s.weight()})
		}
		// ...and random chords make it dense.
		for range (churnDegree - 1) * churnCluster {
			u := s.rng.Intn(churnCluster)
			v := s.rng.Intn(churnCluster - 1)
			if v >= u {
				v++
			}
			s.insert(graph.Edge{U: off + uint32(u), V: off + uint32(v), W: s.weight()})
		}
	}
	// Bridges weigh more than every cluster edge, so the forest holds
	// exactly one of them: the lightest.
	var bridge graph.Edge
	for i := range churnBridges {
		e := graph.Edge{
			U: uint32(s.rng.Intn(churnCluster)),
			V: uint32(churnCluster + s.rng.Intn(churnCluster)),
			W: float32(2 + i),
		}
		if i == 0 {
			bridge = e
		}
		s.insert(e)
	}
	return &churnInput{live: s, bridge: bridge}
}

// fill inserts random edges until the set holds target live edges and
// returns them as insert batches. Set-up sends them, so the mixed stream's
// timed batches run at its steady size, where deletes are as common as
// inserts, from the first one.
func (s *liveSet) fill(target int) [][]stream.Op {
	start := len(s.edges)
	for len(s.edges) < target {
		s.insert(s.randomEdge())
	}
	return insertBatches(s.edges[start:])
}

// insertBatches returns es as insert batches of at most preloadOps ops.
func insertBatches(es []graph.Edge) [][]stream.Op {
	var out [][]stream.Op
	for lo := 0; lo < len(es); lo += preloadOps {
		hi := min(lo+preloadOps, len(es))
		b := make([]stream.Op, 0, hi-lo)
		for _, e := range es[lo:hi] {
			b = append(b, stream.Op{U: e.U, V: e.V, W: e.W})
		}
		out = append(out, b)
	}
	return out
}

// step returns the next churn batch: a delete of the lightest bridge when
// it is live, else its re-insert.
func (c *churnInput) step() (ops []stream.Op, isDelete bool) {
	for i, e := range c.live.edges {
		if e == c.bridge {
			return []stream.Op{c.live.deleteAt(i)}, true
		}
	}
	return []stream.Op{c.live.insert(c.bridge)}, false
}

// graph returns the churn stream's full graph (every bridge live), the
// component the recompute path rebuilds.
func (c *churnInput) graph() (*graphInput, error) {
	g, err := graph.FromEdges(runtime.GOMAXPROCS(0), c.live.n, slices.Clone(c.live.edges))
	if err != nil {
		return nil, err
	}
	return newGraphInput("churn", g)
}
