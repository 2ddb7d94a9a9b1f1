// Package llp implements the generic Lattice Linear Predicate detection
// algorithm (Algorithm 1 of the paper): given a predicate B over an
// n-dimensional lattice of states, repeatedly advance every *forbidden*
// index until none remains, at which point the state vector is the least
// element satisfying B.
//
// Three drivers are provided with identical fixpoint semantics:
//
//   - Sequential: one thread scans indices round-robin.
//   - RoundParallel: rounds with a barrier — detect all forbidden indices in
//     parallel, then advance them all in parallel. Deterministic round count.
//   - Async: workers sweep chunks and advance forbidden indices as they find
//     them, with no barrier between detection and advancing — the "little or
//     no synchronization" mode §VI highlights for LLP-Boruvka's pointer
//     jumping. Requires the instance's Forbidden/Advance to be safe under
//     concurrent invocation on distinct indices with racing reads (use
//     atomics in the instance's state).
//
// Instances in this package: pointer jumping (rooted trees → rooted stars,
// the inner LLP of LLP-Boruvka), single-source shortest paths (the
// LLP-Bellman-Ford of Garg's SPAA'20 paper, showing framework generality),
// and connected components by minimum-label propagation. The MST algorithms
// in internal/mst are specializations of this engine, as the paper's
// Algorithms 5 and 6 are of its Algorithm 1.
package llp

import (
	"context"
	"fmt"
	"sync/atomic"

	"llpmst/internal/par"
)

// Predicate is a lattice-linear predicate over indices 0..N()-1.
//
// Forbidden(j) must report whether index j is forbidden in the current
// state: unless G[j] advances, B can never hold. Advance(j) must move G[j]
// up the lattice so that, after finitely many advances, j is no longer
// forbidden. The engine guarantees Advance(j) is only called when
// Forbidden(j) was observed true.
type Predicate interface {
	// N returns the number of lattice indices.
	N() int
	// Forbidden reports whether index j must advance.
	Forbidden(j int) bool
	// Advance moves index j up the lattice.
	Advance(j int)
}

// Stats reports what a driver did.
type Stats struct {
	Rounds   int   // full sweeps over the index set
	Advances int64 // total Advance calls
}

// Each driver takes the run's Canceller (nil or inert when the run cannot
// be cancelled) and stops early once it observes cancellation: Run and
// RunCtx share one implementation per mode.

// fixpoint repeats sweep, which returns how many indices it advanced, until
// a sweep advances none or cc is cancelled. cc is polled before every
// sweep; the sweeps themselves poll it strided per index.
func fixpoint(cc *par.Canceller, sweep func() int64) Stats {
	var st Stats
	for !cc.Poll() {
		st.Rounds++
		adv := sweep()
		st.Advances += adv
		if adv == 0 {
			break
		}
	}
	return st
}

// Sequential runs the LLP algorithm with a single thread: sweep all indices,
// advancing each forbidden one, until a sweep makes no advances. Returns
// driver statistics.
func Sequential(cc *par.Canceller, pred Predicate) Stats {
	n := pred.N()
	return fixpoint(cc, func() int64 {
		var adv int64
		for j := 0; j < n && !cc.Stride(j); j++ {
			if pred.Forbidden(j) {
				pred.Advance(j)
				adv++
			}
		}
		return adv
	})
}

// RoundParallel runs the LLP algorithm in barrier-synchronized rounds on
// workers goroutines: each round first collects the forbidden set in
// parallel, then advances every member in parallel. This is the literal
// reading of Algorithm 1's "for all j such that forbidden(G, j, B) in
// parallel". Forbidden must be safe to call concurrently with other
// Forbidden calls, and Advance with other Advance calls on distinct
// indices. A cancelled round stops advancing mid-batch; Stats.Advances
// counts only the advances made.
func RoundParallel(cc *par.Canceller, workers int, pred Predicate) Stats {
	n := pred.N()
	var forbidden []uint32
	var adv atomic.Int64
	advance := func(lo, hi int) {
		local := int64(0)
		for i := lo; i < hi && !cc.Stride(i); i++ {
			pred.Advance(int(forbidden[i]))
			local++
		}
		adv.Add(local)
	}
	return fixpoint(cc, func() int64 {
		forbidden = par.PackIndexInto(workers, n, forbidden, nil, pred.Forbidden)
		adv.Store(0)
		par.For(workers, len(forbidden), 256, advance)
		return adv.Load()
	})
}

// Async runs the LLP algorithm with workers goroutines sweeping chunks of
// the index set and advancing forbidden indices immediately, without a
// detection/advance barrier. Sweeps repeat until one full sweep observes no
// forbidden index. The instance must tolerate concurrent Forbidden/Advance
// on distinct indices, including reads of cells being advanced (atomics in
// the instance state); lattice-linearity makes such stale reads harmless —
// an index advanced on stale information is advanced again later.
func Async(cc *par.Canceller, workers int, pred Predicate) Stats {
	n := pred.N()
	var adv atomic.Int64
	// One sweep closure for the whole fixpoint loop, so repeated sweeps
	// allocate nothing.
	sweep := func(lo, hi int) {
		local := int64(0)
		for j := lo; j < hi && !cc.Stride(j); j++ {
			if pred.Forbidden(j) {
				pred.Advance(j)
				local++
			}
		}
		if local > 0 {
			adv.Add(local)
		}
	}
	return fixpoint(cc, func() int64 {
		adv.Store(0)
		par.For(workers, n, 512, sweep)
		return adv.Load()
	})
}

// Mode selects an LLP driver.
type Mode int

const (
	// ModeAsync runs the barrier-free parallel driver. It is the zero value
	// because it is the paper's default for LLP-Boruvka's pointer jumping.
	ModeAsync Mode = iota
	// ModeRound runs the barrier-synchronized parallel driver.
	ModeRound
	// ModeSequential runs the single-threaded driver.
	ModeSequential
)

// drive dispatches to the driver selected by mode.
func drive(cc *par.Canceller, mode Mode, workers int, pred Predicate) Stats {
	switch mode {
	case ModeRound:
		return RoundParallel(cc, workers, pred)
	case ModeSequential:
		return Sequential(cc, pred)
	default:
		return Async(cc, workers, pred)
	}
}

// Run runs pred to its fixpoint with the driver selected by mode.
func Run(mode Mode, workers int, pred Predicate) Stats {
	return drive(nil, mode, workers, pred)
}

// RunCtx is Run with cooperative cancellation: the drivers poll ctx before
// every sweep or round and strided per index within one. On cancellation
// the state vector holds a partially advanced (still lattice-consistent)
// state and the error wraps ctx.Err().
func RunCtx(ctx context.Context, mode Mode, workers int, pred Predicate) (Stats, error) {
	cc := par.NewCanceller(ctx)
	st := drive(cc, mode, workers, pred)
	// A cancelled sweep observes no advances without being at the fixpoint;
	// report the interruption, not convergence.
	if cc.Poll() {
		return st, fmt.Errorf("llp: driver interrupted after %d rounds: %w", st.Rounds, cc.Err())
	}
	return st, nil
}
