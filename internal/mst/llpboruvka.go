package mst

import (
	"context"
	"slices"

	"llpmst/internal/graph"
	"llpmst/internal/llp"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// llpBoruvkaNames are LLP-Boruvka's span names.
var llpBoruvkaNames = roundNames{
	run:      "llp-boruvka",
	parents:  "llp-boruvka.parents",
	chunk:    "llp-boruvka.parents.chunk",
	jump:     "llp-boruvka.jump",
	contract: "llp-boruvka.contract",
}

// LLPBoruvka implements Algorithm 6. Each round of the (here iteratively
// unrolled) recursion runs on a contracted graph whose vertices are the
// previous round's components: every vertex picks its minimum-weight
// incident edge (mwe) by atomic write-min, then the shared round (see
// contraction.round) hooks, flattens the rooted trees to rooted stars by
// LLP pointer jumping on the driver opts.JumpMode selects — by default the
// barrier-free Async driver, the "little to no synchronization within a
// round" the paper emphasizes — and contracts. Unlike ParallelBoruvka there
// is no shared union-find: component identity is carried entirely by the G
// array and resolved by pointer jumping. Cancellation and worker panics
// return a partial forest (see runBoruvka).
func LLPBoruvka(g *graph.CSR, opts Options) (*Forest, error) {
	return runBoruvka(AlgLLPBoruvka, g, opts, &llpBoruvkaNames, (*contraction).writeMinKernel)
}

// writeMinKernel is LLP-Boruvka's selection kernel, the push form of the
// min-plus SpMV: every live edge write-mins its key into both endpoints'
// cells.
func (c *contraction) writeMinKernel() func() bool {
	mweBody := func(i int) {
		if c.cc.Stride(i) {
			return
		}
		e := &c.edges[i]
		par.WriteMin(&c.bst[e.u], e.key)
		par.WriteMin(&c.bst[e.v], e.key)
	}
	return func() bool {
		c.ph.begin(c.col, "llp-boruvka.mwe")
		par.FillKeys(c.p, c.bst, par.InfKey)
		par.ForEach(c.p, len(c.edges), 2048, mweBody)
		c.ph.close()
		return true
	}
}

// cedge is a contracted edge: endpoints in the current round's vertex space
// plus the canonical packed key (whose low bits are the original edge id).
type cedge struct {
	u, v uint32
	key  uint64
}

// roundNames are one Boruvka backend's span names: the whole run, and the
// phases of the shared round (the parent phase's per-chunk span lands on
// the executing worker's track). Selection kernels name their own spans.
type roundNames struct {
	run, parents, chunk, jump, contract string
}

// contraction is one Boruvka-family run's live state: the contracted edge
// list and the vertex-indexed scratch every round reuses. LLP-Boruvka,
// SemiringBoruvka and KKT's contraction steps differ only in sel, the
// selection kernel that fills bst[v] with the minimum packed key incident
// to contracted vertex v; round runs everything after it. Whether the
// kernel pushes edge keys into vertex cells (atomic write-min) or pulls
// each row's minimum (a row-major min reduction), it computes the same
// min-plus product y = A ⊕.⊗ 1 (see THEORY.md).
type contraction struct {
	p     int
	ctx   context.Context
	mode  llp.Mode
	cc    *par.Canceller
	col   obs.Collector
	ws    *Workspace
	names *roundNames
	ph    phase
	sel   func() bool // the backend's selection kernel; false: cancelled

	edges []cedge // live edges, endpoints in [0, nv)
	nv    int     // contracted vertex count

	// The current round's views of the workspace's vertex scratch, read by
	// the hoisted bodies below (which capture c, so steady-state rounds
	// allocate nothing).
	bst   []uint64 // filled by sel
	bidx  []int32  // index into edges of each vertex's minimum edge, or -1
	gv    []uint32 // parents: rooted trees, then rooted stars
	nid   []uint32
	roots []uint32

	bidxClear    func(int)
	winnerBody   func(int)
	parentBody   func(w, lo, hi int, out []uint32) []uint32
	isRoot       func(int) bool
	nidScatter   func(int)
	contractEdge func(cedge) (cedge, bool)

	rounds, jumpRounds, jumpAdvances int64
}

// newContraction acquires a contraction over n vertices from ws, recording
// to col under names. The caller sets edges and sel.
func newContraction(ws *Workspace, n int, opts Options, col obs.Collector, names *roundNames) *contraction {
	c := &contraction{
		p: opts.workers(), ctx: opts.Ctx, mode: opts.JumpMode, cc: opts.canceller(), col: col, ws: ws, names: names, nv: n,
	}
	c.bidxClear = func(v int) { c.bidx[v] = -1 }
	// Keys are unique, so each vertex's cell has exactly one writer here:
	// no atomics needed.
	c.winnerBody = func(i int) {
		e := &c.edges[i]
		if c.bst[e.u] == e.key {
			c.bidx[e.u] = int32(i)
		}
		if c.bst[e.v] == e.key {
			c.bidx[e.v] = int32(i)
		}
	}
	c.parentBody = func(w, lo, hi int, out []uint32) []uint32 {
		endChunk := obs.ForWorker(c.col, w).Span(c.names.chunk)
		defer endChunk()
		for v := lo; v < hi; v++ {
			if c.cc.Stride(v) {
				break
			}
			bi := c.bidx[v]
			if bi < 0 {
				c.gv[v] = uint32(v) // isolated in the contracted graph
				continue
			}
			e := &c.edges[bi]
			w := e.u
			if w == uint32(v) {
				w = e.v
			}
			mutual := c.bidx[w] == bi
			if mutual && uint32(v) < w {
				c.gv[v] = uint32(v) // paper's tie-break: v roots itself
			} else {
				c.gv[v] = w
			}
			if !mutual || uint32(v) < w {
				out = append(out, par.KeyID(e.key))
			}
		}
		return out
	}
	c.isRoot = func(v int) bool { return c.gv[v] == uint32(v) }
	c.nidScatter = func(i int) { c.nid[c.roots[i]] = uint32(i) }
	c.contractEdge = func(e cedge) (cedge, bool) {
		gu, gw := c.gv[e.u], c.gv[e.v]
		if gu == gw {
			return cedge{}, false
		}
		return cedge{u: c.nid[gu], v: c.nid[gw], key: e.key}, true
	}
	return c
}

// round runs one Boruvka round on the live edges:
//
//  1. sel fills bst, every contracted vertex's minimum incident key;
//     a winner pass turns it back into edge indices;
//  2. parents are chosen with the paper's symmetry break: G[v] = w for
//     mwe(v) = (v, w), except when the choice is mutual and v < w, in which
//     case v roots itself. G is then a forest of rooted trees in which edge
//     weights strictly decrease towards the root (Lemma 3/4). Each chosen
//     edge is collected once: mutual pairs by the smaller endpoint, others
//     by the choosing endpoint;
//  3. the rooted trees are flattened to rooted stars by the LLP pointer-
//     jumping instance (forbidden(j) ≡ G[j] ≠ G[G[j]], advance(j): G[j] :=
//     G[G[j]]) run on the driver selected by mode;
//  4. components are contracted: star roots become the next round's
//     vertices, intra-component edges are discarded, and surviving edges are
//     relabelled, in order, into dst, which must not alias the live edges.
//
// chosen holds the round's MSF edge ids until the next round. ok is false
// when the run was cancelled; chosen then holds the choices made before the
// cancel, which are sound (they are only made once selection completed),
// and the live edges are unchanged.
func (c *contraction) round(dst []cedge) (chosen []uint32, ok bool) {
	if c.cc.Poll() {
		return nil, false
	}
	c.rounds++
	// The round mark comes first so every event below — including the
	// round's own counter — lands in this round's segment.
	obs.MarkRound(c.col, c.rounds)
	c.col.Count(obs.CtrRounds, 1)
	c.col.Gauge(obs.GaugeLiveEdges, int64(len(c.edges)))
	nv, ws := c.nv, c.ws
	c.bst = ws.keysBuf(nv)
	// A cancel inside selection leaves best incomplete; the parent phase
	// must not consume it, or its choices need not be MSF edges.
	if !c.sel() || c.cc.Poll() {
		return nil, false
	}

	c.ph.begin(c.col, c.names.parents)
	c.bidx = ws.vIdxBuf(nv)
	par.ForEach(c.p, nv, 8192, c.bidxClear)
	par.ForEach(c.p, len(c.edges), 2048, c.winnerBody)
	c.gv = ws.vertsABuf(nv)
	chosen = par.ForCollectIntoW(c.p, nv, 2048, ws.picks, c.parentBody)
	ws.picks = chosen[:0] // keep grown capacity for the next round
	c.ph.close()
	if c.cc.Poll() {
		return chosen, false
	}

	c.ph.begin(c.col, c.names.jump)
	jst, jumpErr := llp.RunCtx(c.ctx, c.mode, c.p, ws.jumpBuf(c.gv))
	c.ph.close()
	c.jumpRounds += int64(jst.Rounds)
	c.jumpAdvances += jst.Advances
	c.col.Count(obs.CtrJumpRounds, int64(jst.Rounds))
	c.col.Count(obs.CtrJumpAdvances, jst.Advances)
	// An interrupted jump leaves non-star trees in gv; contraction must not
	// run on them.
	if jumpErr != nil || c.cc.Poll() {
		return chosen, false
	}

	// Relabel via per-worker chunk counts + prefix sum (see
	// par.FilterMapInto): no per-round allocation.
	c.ph.begin(c.col, c.names.contract)
	counters := ws.countersBuf(c.p)
	c.roots = par.PackIndexInto(c.p, nv, ws.vertsCBuf(nv), counters, c.isRoot)
	c.nid = ws.vertsBBuf(nv)
	par.ForEach(c.p, len(c.roots), 8192, c.nidScatter)
	c.edges = par.FilterMapInto(c.p, dst, c.edges, counters, c.contractEdge)
	c.nv = len(c.roots)
	c.ph.close()
	return chosen, true
}

// runBoruvka is the driver LLP-Boruvka and SemiringBoruvka share: it packs
// the input's edges into the live list and runs rounds, contracting into a
// ping-pong buffer, until no edge survives. kernel builds the backend's
// selection kernel once per run. A cancelled run, or one whose worker
// panicked (re-raised by the runtime after all workers joined), returns the
// forest edges chosen so far — a subset of the canonical MSF — with an
// error wrapping ctx.Err() or a *par.PanicError (see recoverPanic).
func runBoruvka(alg Algorithm, g *graph.CSR, opts Options, names *roundNames, kernel func(c *contraction) func() bool) (f *Forest, err error) {
	n := g.NumVertices()
	ws, release := opts.workspace()
	defer release()
	ids := ws.idsBuf(n)[:0]
	defer recoverPanic(alg, g, &ids, n-1, &f, &err)
	c := newContraction(ws, n, opts, opts.collector(), names)
	defer c.col.Span(names.run)()
	defer c.ph.close()

	m := g.NumEdges()
	c.edges = ws.cedgesBuf(m)
	par.ForEach(c.p, m, 4096, func(i int) {
		e := g.Edge(uint32(i))
		c.edges[i] = cedge{u: e.U, v: e.V, key: par.PackKey(e.W, uint32(i))}
	})
	spare := ws.cspareBuf(m)
	c.sel = kernel(c)

	cancelled := false
	for len(c.edges) > 0 {
		prev := c.edges
		chosen, ok := c.round(spare)
		ids = append(ids, chosen...)
		if !ok {
			cancelled = true
			break
		}
		spare = prev[:cap(prev)]
	}
	if opts.Metrics != nil {
		*opts.Metrics = WorkMetrics{
			Rounds: c.rounds, JumpRounds: c.jumpRounds, JumpAdvances: c.jumpAdvances,
		}
	}
	f = newForest(g, slices.Clone(ids))
	if cancelled {
		return f, interrupted(alg, c.cc, len(ids), n-1)
	}
	return f, nil
}
