package mst

import (
	"errors"
	"sync/atomic"

	"llpmst/internal/graph"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// shardArcTarget sizes the semiring SpMV's row shards: each shard covers
// roughly this many matrix entries (8 KiB of packed keys — comfortably
// inside L1), so a shard is one cache-resident unit of work and skewed
// degree distributions (one giant scale-free row next to thousands of tiny
// ones) balance through the work-stealing scheduler rather than through a
// static split.
const shardArcTarget = 1024

// semiringNames are SemiringBoruvka's span names.
var semiringNames = roundNames{
	run:      "semi-boruvka",
	parents:  "semi-boruvka.hook",
	chunk:    "semi-boruvka.hook.chunk",
	jump:     "semi-boruvka.jump",
	contract: "semi-boruvka.contract",
}

// SemiringBoruvka is the sparse-matrix (GraphBLAS-style) Boruvka backend:
// the Baer–Kanakagiri–Solomonik formulation of MSF rounds as min-plus
// semiring linear algebra, specialized to this repo's packed (weight, edge
// id) key order. Each round:
//
//  1. builds the contracted graph's adjacency matrix in row-major form — a
//     component-indexed permutation of the live edge list (count per row,
//     exclusive scan, scatter), not an explicit matrix product;
//  2. computes the selection vector y = A ⊕.⊗ 1 — a min-plus SpMV in which
//     row r's reduction is a branch-free packed min over its contiguous
//     entries (par.MinRowsInto: no atomics anywhere in the row loop,
//     because each row has exactly one writer). Rows are blocked into
//     cache-sized shards (~shardArcTarget entries) handed out via the
//     sched work-stealing bag, so skewed rows do not serialize the sweep;
//  3. hooks, shortcuts and contracts through the shared contraction round
//     (see contraction.round): G[r] is the far endpoint of r's selected
//     edge with the paper's mutual-minimum symmetry break, pointer jumping
//     flattens G to rooted stars, and star roots become the next round's
//     row indices.
//
// Because the reduction is over canonical packed keys, the selected edge is
// the true (weight, id)-minimum of every row, so the produced forest is the
// same unique MSF as Kruskal's, edge for edge.
//
// Cancellation and worker panics return a partial forest (see runBoruvka).
func SemiringBoruvka(g *graph.CSR, opts Options) (*Forest, error) {
	return runBoruvka(AlgSemiringBoruvka, g, opts, &semiringNames, (*contraction).spmvKernel)
}

// spmvKernel is SemiringBoruvka's selection kernel, the pull form of the
// min-plus SpMV: it materializes this round's matrix rows, then reduces
// each row to its minimum entry. It is built before the first round, so
// c's vertex count and edge list size its scratch for the run.
func (c *contraction) spmvKernel() func() bool {
	ws, cc, n, m := c.ws, c.cc, c.nv, len(c.edges)
	rowOffFull := ws.rowOffBuf(n + 1)
	arcKeys := ws.arcKeysBuf(2 * m)
	cursorFull := ws.flagsABuf(n)
	shardRows := ws.stageBuf(n) // shard b starts at row shardRows[b]
	bag := ws.asyncBagBuf()

	// Per-round slices read by the bodies, which are hoisted out of the
	// round loop (they capture by reference) so steady-state rounds
	// allocate nothing.
	var (
		off     []int64
		cur     []uint32
		nShards int
	)
	countBody := func(i int) {
		if cc.Stride(i) {
			return
		}
		e := &c.edges[i]
		atomic.AddInt64(&off[e.u], 1)
		atomic.AddInt64(&off[e.v], 1)
	}
	scatterBody := func(i int) {
		if cc.Stride(i) {
			return
		}
		e := &c.edges[i]
		// The per-row cursor orders entries nondeterministically under
		// contention, but min is order-independent and keys are unique, so
		// y — and everything after it — is deterministic anyway.
		arcKeys[off[e.u]+int64(atomic.AddUint32(&cur[e.u], 1))-1] = e.key
		arcKeys[off[e.v]+int64(atomic.AddUint32(&cur[e.v], 1))-1] = e.key
	}
	// Single-worker runs take plain-increment variants of the build bodies:
	// with one writer the atomic RMWs buy nothing, and dropping them takes
	// four uncontended-but-serializing instructions out of the per-edge
	// build cost.
	countFn, scatterFn := countBody, scatterBody
	if c.p == 1 {
		countFn = func(i int) {
			if cc.Stride(i) {
				return
			}
			e := &c.edges[i]
			off[e.u]++
			off[e.v]++
		}
		scatterFn = func(i int) {
			if cc.Stride(i) {
				return
			}
			e := &c.edges[i]
			pu := off[e.u] + int64(cur[e.u])
			cur[e.u]++
			pv := off[e.v] + int64(cur[e.v])
			cur[e.v]++
			arcKeys[pu] = e.key
			arcKeys[pv] = e.key
		}
	}
	spmvShard := func(b uint32, _ func(uint32)) {
		lo := int(shardRows[b])
		hi := c.nv
		if int(b)+1 < nShards {
			hi = int(shardRows[b+1])
		}
		if cc.Stride(lo) {
			return
		}
		par.MinRowsInto(c.bst[lo:hi], off[lo:hi+1], arcKeys)
	}

	return func() bool {
		p, nv, live := c.p, c.nv, len(c.edges)
		// Materialize the rows — the implicit relabel. Count entries per
		// row, exclusive-scan into offsets, scatter each edge's key into
		// both endpoint rows.
		c.ph.begin(c.col, "semi-boruvka.build")
		off = rowOffFull[:nv+1]
		par.Fill(p, off[:nv], 0)
		cur = cursorFull[:nv]
		par.Fill(p, cur, 0)
		par.ForEach(p, live, 2048, countFn)
		off[nv] = par.ExclusiveScan(p, off[:nv])
		par.ForEach(p, live, 2048, scatterFn)
		// Block rows into cache-sized shards: cut whenever the running
		// entry count passes the target, so each shard is one L1-resident
		// reduction unit regardless of how skewed the rows are.
		shards := append(shardRows[:0], 0)
		var acc int64
		for r := 0; r < nv-1; r++ {
			if acc += off[r+1] - off[r]; acc >= shardArcTarget {
				shards = append(shards, uint32(r+1))
				acc = 0
			}
		}
		nShards = len(shards)
		seed := ws.bagBuf(nShards)
		for b := range seed {
			seed[b] = uint32(b)
		}
		c.ph.close()
		// A cancel inside the build leaves the rows incomplete; the SpMV
		// must not reduce them.
		if cc.Poll() {
			return false
		}
		// The min-plus SpMV. Shards go through the work-stealing bag; each
		// owns a contiguous row range, so no atomics are needed in the
		// reduction.
		c.ph.begin(c.col, "semi-boruvka.spmv")
		serr := bag.ForEachObs(c.ctx, p, seed, spmvShard, c.col)
		c.ph.close()
		c.col.Count(obs.CtrSemiSpmvRows, int64(nv))
		c.col.Count(obs.CtrSemiSpmvArcs, 2*int64(live))
		c.col.Count(obs.CtrSemiShards, int64(nShards))
		if serr != nil {
			// A worker panic (already drained and boxed by the scheduler)
			// funnels through the run's deferred recover, so there is a
			// single conversion path; anything else is cancellation.
			var pe *par.PanicError
			if errors.As(serr, &pe) {
				panic(pe)
			}
			return false
		}
		return true
	}
}
