package mst

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"

	"llpmst/internal/graph"
	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// LLP-Prim (Algorithm 5, "early fixing"). The state vector G of the LLP
// formulation (Algorithm 4) — each vertex's currently proposed parent edge —
// is realized here as the packed dist[] key: the low 32 bits of a vertex's
// tentative key are exactly its proposed parent edge id, so advancing G[j]
// and relaxing dist[j] are the same operation.
//
// A vertex becomes fixed in one of the two ways §V.A enumerates:
//
//  1. as the nearest neighbor of the fixed fragment (a heap pop — classic
//     Prim), or
//  2. through a minimum weight edge (MWE): while exploring the arcs of a
//     fixed vertex j, a non-fixed neighbor k is fixed immediately if the arc
//     is j's or k's minimum-weight edge. Such edges are always in the MSF
//     (they are first-round Boruvka edges), so no heap traffic is needed and
//     the fixing can cascade: k joins the bag R and is explored in turn.
//
// Relaxations discovered while draining R are staged in the set Q and pushed
// into the heap only when R empties — Algorithm 5's device for avoiding
// insertOrAdjust churn while the bag is hot. Both optimizations have
// ablation switches in Options.
//
// The fixed set always forms a subtree of the (unique) MSF of its component:
// early fixing adds minimum-incident edges, heap pops add minimum cut edges,
// and each newly fixed vertex contributes exactly one edge. That invariant
// is why LLP-Prim(1T) performs strictly less heap work than Prim on the same
// input, the effect Fig. 2 measures.

// LLPPrim runs the sequential (1-thread) LLP-Prim of Algorithm 5.
// Disconnected inputs are handled by restarting from each unvisited vertex,
// producing the minimum spanning forest. Cancellation via opts.Ctx is
// polled once per explored vertex; a cancelled run returns the partial
// forest plus a non-nil error, and a panic (e.g. from an Observer) is
// converted into a *par.PanicError the same way (see recoverPanic).
func LLPPrim(g *graph.CSR, opts Options) (f *Forest, err error) {
	n := g.NumVertices()
	ws, release := opts.workspace()
	defer release()
	ids := ws.idsBuf(n)[:0]
	defer recoverPanic(AlgLLPPrim, g, &ids, n-1, &f, &err)
	mwe := minWeightEdges(1, g)
	earlyFix := !opts.NoEarlyFix
	staging := !opts.NoStaging
	cc := opts.canceller()
	col := opts.collector()
	defer col.Span("llp-prim")()

	fixed := ws.boolsABuf(n)
	clear(fixed)
	dist := ws.keysBuf(n)
	for i := range dist {
		dist[i] = par.InfKey
	}
	h := ws.heapBuf()
	r := ws.bagBuf(n)[:0]   // the bag R of fixed, unexplored vertices
	q := ws.stageBuf(n)[:0] // the staging set Q
	inQ := ws.boolsBBuf(n)
	clear(inQ)
	var pushes, pops, stale, early, heapFixes, relaxations int64
	var ePushes, ePops, eEarly int64 // counts already streamed to col
	var wave, bagHW int64
	step := 0 // work-item index for strided cancellation polls
	// flush streams the not-yet-emitted counter deltas and refreshes the
	// metrics snapshot. It is called once per wave (so round-aware
	// collectors see the early-fix vs heap-pop mix per wave) and once at
	// exit; the emitted-so-far bookkeeping keeps the streamed totals
	// identical to WorkMetrics no matter how often it runs.
	flush := func() {
		if d := pushes - ePushes; d != 0 {
			col.Count(obs.CtrHeapPush, d)
			ePushes = pushes
		}
		if d := pops - ePops; d != 0 {
			col.Count(obs.CtrHeapPop, d)
			ePops = pops
		}
		if d := early - eEarly; d != 0 {
			col.Count(obs.CtrEarlyFix, d)
			eEarly = early
		}
		if opts.Metrics != nil {
			*opts.Metrics = WorkMetrics{
				HeapPushes: pushes, HeapPops: pops, StalePops: stale,
				EarlyFixes: early, HeapFixes: heapFixes, Relaxations: relaxations,
			}
		}
	}

	for s := 0; s < n; s++ {
		if fixed[s] {
			continue
		}
		if cc.Stride(step) {
			goto cancelled
		}
		fixed[s] = true
		r = append(r[:0], uint32(s))
		for {
			// One wave: drain the bag, flush Q, fix one vertex off the heap.
			wave++
			obs.MarkRound(col, wave)
			bagHW = int64(len(r))
			// Drain R: explore fixed vertices, cascading MWE fixings.
			for len(r) > 0 {
				if l := int64(len(r)); l > bagHW {
					bagHW = l
				}
				if step++; cc.Stride(step) {
					goto cancelled
				}
				j := r[len(r)-1]
				r = r[:len(r)-1]
				mweJ := mwe[j]
				lo, hi := g.ArcRange(j)
				for a := lo; a < hi; a++ {
					k := g.Target(a)
					if fixed[k] {
						continue
					}
					key := g.ArcKey(a)
					// Early fix via j's own mwe: a register compare.
					if earlyFix && key == mweJ {
						fixed[k] = true
						ids = append(ids, g.ArcEdgeID(a))
						r = append(r, k)
						early++
						continue
					}
					if key < dist[k] {
						// Early fix via k's mwe. The check can live inside
						// the improvement branch: key == mwe[k] implies
						// key < dist[k], because every other k-incident key
						// exceeds mwe[k] and this arc — the only one that
						// could have written dist[k] = mwe[k] — is explored
						// exactly once, now.
						if earlyFix && key == mwe[k] {
							fixed[k] = true
							ids = append(ids, g.ArcEdgeID(a))
							r = append(r, k)
							early++
							continue
						}
						dist[k] = key
						relaxations++
						if staging {
							if !inQ[k] {
								inQ[k] = true
								q = append(q, k)
							}
						} else {
							h.Push(k, key)
							pushes++
						}
					}
				}
			}
			// R drained: flush Q into the heap.
			if staging {
				for _, k := range q {
					inQ[k] = false
					if !fixed[k] {
						h.Push(k, dist[k])
						pushes++
					}
				}
				q = q[:0]
			}
			// Fix the nearest neighbor of the fragment, if any.
			fixedOne := false
			for !h.Empty() {
				if step++; cc.Stride(step) {
					goto cancelled
				}
				k, key := h.PopMin()
				pops++
				if fixed[k] || key != dist[k] {
					stale++
					continue // stale entry
				}
				fixed[k] = true
				ids = append(ids, par.KeyID(key))
				r = append(r, k)
				heapFixes++
				fixedOne = true
				break
			}
			col.Gauge(obs.GaugeFrontier, bagHW)
			col.Gauge(obs.GaugeHeapSize, int64(h.Len()))
			flush()
			if !fixedOne {
				break // component complete
			}
		}
	}
	flush()
	return newForest(g, slices.Clone(ids)), nil

cancelled:
	flush()
	return newForest(g, slices.Clone(ids)), interrupted(AlgLLPPrim, cc, len(ids), n-1)
}

// LLPPrimParallel runs Algorithm 5 with the bag R processed by
// opts.Workers goroutines in barrier-synchronized frontier waves: the
// vertices of R form a frontier whose arcs are explored in parallel ("If R
// consists of multiple vertices then all of them can be explored in
// parallel", §V.A), and the vertices a wave fixes form the next wave.
// Everything else — Q staging, the heap region between drains,
// cancellation and panics — is the driver it shares with LLPPrimAsync (see
// runParPrim).
func LLPPrimParallel(g *graph.CSR, opts Options) (*Forest, error) {
	return runParPrim(AlgLLPPrimParallel, g, opts, "llp-prim-par", (*parPrim).waveDrain)
}

// parPrim is the state of a parallel LLP-Prim run, shared by the driver and
// its drain. fixed, dist and inQ are written atomically by the drain's
// workers. ids (the chosen tree edges) and q (the staging set Q) are
// claimed by atomic cursor: a vertex is fixed once and staged at most once
// per drain (inQ dedups), so n slots suffice.
type parPrim struct {
	g        *graph.CSR
	p        int
	ctx      context.Context
	cc       *par.Canceller
	col      obs.Collector
	ws       *Workspace
	mwe      []uint64
	earlyFix bool
	fixed    []uint32 // atomic 0/1
	dist     []uint64 // atomic packed keys
	inQ      []uint32 // atomic 0/1
	ids, q   []uint32
	nIDs, nQ atomic.Int64
	round    int64 // the drain's round marks: per frontier wave or per bag cycle
}

// runParPrim is the driver LLPPrimParallel and LLPPrimAsync share. Each
// component is grown from its first unfixed vertex by alternating two
// steps until the heap runs dry: drain the bag R (the step the two
// schedules differ in; newDrain builds it once per run, and the drain it
// returns may reuse seed's storage), then flush Q into the heap and fix the
// fragment's nearest neighbor with a heap pop, which seeds the next drain.
//
// Cancellation is polled by the drain and (strided) in the heap region. A
// cancelled run, or one whose worker panicked, returns the edges chosen so
// far with an error (see recoverPanic). Every id written through the cursor
// is individually sound — a CAS-won minimum-weight edge or a heap-popped
// minimum cut edge — so the snapshot taken after the workers join is a
// subset of the canonical MSF.
func runParPrim(alg Algorithm, g *graph.CSR, opts Options, span string, newDrain func(s *parPrim) func(seed []uint32) error) (f *Forest, err error) {
	n := g.NumVertices()
	ws, release := opts.workspace()
	defer release()
	s := &parPrim{g: g, p: opts.workers(), ctx: opts.Ctx, ws: ws, ids: ws.idsBuf(n), q: ws.stageBuf(n)}
	defer func() {
		if r := recover(); r != nil {
			chosen := slices.Clone(s.ids[:s.nIDs.Load()])
			f = newForest(g, chosen)
			err = panicked(alg, par.AsPanicError(r, -1), len(chosen), n-1)
		}
	}()
	s.mwe = minWeightEdges(s.p, g)
	s.earlyFix = !opts.NoEarlyFix
	s.cc, s.col = opts.canceller(), opts.collector()
	cc, col := s.cc, s.col
	defer col.Span(span)()

	s.fixed = ws.flagsABuf(n)
	par.Fill(s.p, s.fixed, 0)
	s.dist = ws.keysBuf(n)
	par.FillKeys(s.p, s.dist, par.InfKey)
	s.inQ = ws.flagsBBuf(n)
	par.Fill(s.p, s.inQ, 0)
	h := ws.heapBuf()
	drain := newDrain(s)

	var pushes, pops, stale, heapFixes int64
	var ePushes, ePops, eEarly int64 // counts already streamed to col
	// flush streams the not-yet-emitted counter deltas and refreshes the
	// metrics snapshot. It runs once per drain-and-fix cycle (so
	// round-aware collectors see the early-fix vs heap traffic mix as it
	// happens) and at exit. Early fixes are derived: every chosen edge that
	// was not a heap fix was an early CAS fix.
	flush := func() {
		early := s.nIDs.Load() - heapFixes
		if d := pushes - ePushes; d != 0 {
			col.Count(obs.CtrHeapPush, d)
			ePushes = pushes
		}
		if d := pops - ePops; d != 0 {
			col.Count(obs.CtrHeapPop, d)
			ePops = pops
		}
		if d := early - eEarly; d != 0 {
			col.Count(obs.CtrEarlyFix, d)
			eEarly = early
		}
		if opts.Metrics != nil {
			*opts.Metrics = WorkMetrics{
				HeapPushes: pushes, HeapPops: pops, StalePops: stale,
				EarlyFixes: early, HeapFixes: heapFixes,
			}
		}
	}
	finish := func(cancelled bool) (*Forest, error) {
		chosen := slices.Clone(s.ids[:s.nIDs.Load()])
		flush()
		f := newForest(g, chosen)
		if cancelled {
			return f, interrupted(alg, cc, len(chosen), n-1)
		}
		return f, nil
	}

	seed := ws.bagBuf(n)
	step := 0 // work-item index for strided cancellation polls
	for v := 0; v < n; v++ {
		if atomic.LoadUint32(&s.fixed[v]) == 1 {
			continue
		}
		if cc.Stride(v) {
			return finish(true)
		}
		s.fixed[v] = 1
		seed = append(seed[:0], uint32(v))
		for {
			if derr := drain(seed); derr != nil {
				// A worker panic the scheduler returned funnels through the
				// deferred recover above, so there is a single conversion
				// path; anything else is cancellation.
				var pe *par.PanicError
				if errors.As(derr, &pe) {
					panic(pe)
				}
				return finish(true)
			}
			// R drained (the workers have joined): flush Q into the heap,
			// then fix the fragment's nearest neighbor.
			for _, k := range s.q[:s.nQ.Load()] {
				s.inQ[k] = 0
				if s.fixed[k] == 0 {
					h.Push(k, s.dist[k])
					pushes++
				}
			}
			s.nQ.Store(0)
			col.Gauge(obs.GaugeHeapSize, int64(h.Len()))
			fixedOne := false
			for !h.Empty() {
				if step++; cc.Stride(step) {
					return finish(true)
				}
				k, key := h.PopMin()
				pops++
				if s.fixed[k] == 1 || key != s.dist[k] {
					stale++
					continue // stale entry
				}
				s.fixed[k] = 1
				s.ids[s.nIDs.Add(1)-1] = par.KeyID(key)
				seed = append(seed[:0], k)
				heapFixes++
				fixedOne = true
				break
			}
			flush()
			if !fixedOne {
				break // component complete
			}
		}
	}
	return finish(false)
}

// waveDrain is LLPPrimParallel's drain: barrier-synchronized frontier
// waves. Fixing races are resolved with a CAS per vertex, tentative keys
// with atomic write-min. Each wave is a round segment for round-aware
// collectors, and each chunk runs under the executing worker's attributed
// collector view, so its exploration span lands on that worker's track.
func (s *parPrim) waveDrain() func(seed []uint32) error {
	g, mwe, earlyFix, cc := s.g, s.mwe, s.earlyFix, s.cc
	fixed, dist, inQ, ids, q := s.fixed, s.dist, s.inQ, s.ids, s.q
	// The wave body is hoisted out of the wave loop (capturing the current
	// wave through the variable) so steady-state waves allocate nothing.
	var wave []uint32
	waveBody := func(w, lo, hi int, out []uint32) []uint32 {
		endChunk := obs.ForWorker(s.col, w).Span("llp-prim-par.wave")
		defer endChunk()
		for i := lo; i < hi; i++ {
			if cc.Stride(i) {
				break
			}
			j := wave[i]
			mweJ := mwe[j]
			alo, ahi := g.ArcRange(j)
			for a := alo; a < ahi; a++ {
				k := g.Target(a)
				if atomic.LoadUint32(&fixed[k]) == 1 {
					continue
				}
				key := g.ArcKey(a)
				// Early fix via j's or k's own mwe ("this edge could be the
				// minimum weight edge for z or for k").
				if earlyFix && (key == mweJ || key == mwe[k]) {
					if atomic.CompareAndSwapUint32(&fixed[k], 0, 1) {
						ids[s.nIDs.Add(1)-1] = g.ArcEdgeID(a)
						out = append(out, k)
					}
					continue
				}
				if par.WriteMin(&dist[k], key) && atomic.CompareAndSwapUint32(&inQ[k], 0, 1) {
					q[s.nQ.Add(1)-1] = k
				}
			}
		}
		return out
	}
	return func(seed []uint32) error {
		for wave = seed; len(wave) > 0; {
			if cc.Poll() {
				return cc.Err()
			}
			s.round++
			obs.MarkRound(s.col, s.round)
			s.col.Gauge(obs.GaugeFrontier, int64(len(wave)))
			next := par.ForCollectIntoW(s.p, len(wave), 32, s.ws.picks, waveBody)
			s.ws.picks = next[:0] // keep grown capacity for the next wave
			wave = append(wave[:0], next...)
		}
		return nil
	}
}

// LLPPrimAsync is Algorithm 5 with the bag R scheduled by the Galois-style
// asynchronous work-stealing executor (internal/sched) instead of
// barrier-synchronized frontier waves: workers pull fixed vertices from R,
// explore their arcs, CAS-fix MWE neighbors and push them straight back
// into the bag — no synchronization between explorations, exactly the
// paper's "the inner loop keeps processing the set R till it becomes
// empty... If R consists of multiple vertices then all of them can be
// explored in parallel". Everything else — Q staging, the sequential heap
// region between bag quiescences, cancellation and panics — is the driver
// it shares with LLPPrimParallel (see runParPrim).
//
// Compared to LLPPrimParallel (frontier waves), the async bag avoids one
// barrier per wave at the cost of per-item queue traffic; the ablation
// benchmark compares the two schedules. opts.Observer (or a collector on
// opts.Ctx) receives the scheduler's push/pop/steal counters and queue
// depth gauge alongside the heap counters.
func LLPPrimAsync(g *graph.CSR, opts Options) (*Forest, error) {
	return runParPrim(AlgLLPPrimAsync, g, opts, "llp-prim-async", (*parPrim).bagDrain)
}

// bagDrain is LLPPrimAsync's drain: it drives the work-stealing bag to
// quiescence. Each drain is a round segment for round-aware collectors.
func (s *parPrim) bagDrain() func(seed []uint32) error {
	g, mwe, earlyFix := s.g, s.mwe, s.earlyFix
	fixed, dist, inQ, ids, q := s.fixed, s.dist, s.inQ, s.ids, s.q
	bag := s.ws.asyncBagBuf()
	explore := func(j uint32, push func(uint32)) {
		mweJ := mwe[j]
		lo, hi := g.ArcRange(j)
		for a := lo; a < hi; a++ {
			k := g.Target(a)
			if atomic.LoadUint32(&fixed[k]) == 1 {
				continue
			}
			key := g.ArcKey(a)
			if earlyFix && (key == mweJ || key == mwe[k]) {
				if atomic.CompareAndSwapUint32(&fixed[k], 0, 1) {
					ids[s.nIDs.Add(1)-1] = g.ArcEdgeID(a)
					push(k)
				}
				continue
			}
			if par.WriteMin(&dist[k], key) && atomic.CompareAndSwapUint32(&inQ[k], 0, 1) {
				q[s.nQ.Add(1)-1] = k
			}
		}
	}
	return func(seed []uint32) error {
		s.round++
		obs.MarkRound(s.col, s.round)
		return bag.ForEachObs(s.ctx, s.p, seed, explore, s.col)
	}
}
