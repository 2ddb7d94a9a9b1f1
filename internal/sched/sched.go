package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"llpmst/internal/obs"
	"llpmst/internal/par"
)

// ForEachAsync processes the initial items and everything pushed during
// processing, on p workers, in no particular order. process receives the
// item and a push function that may only be called from within that process
// invocation. Each pushed item is processed exactly once. Returns when all
// work has drained (quiescence).
//
// A panic in process stops the run: the first panic is captured as a
// *par.PanicError, every other worker exits cleanly at its next item
// boundary, and the PanicError is re-raised here once all workers have
// joined — so even a crashing caller never leaks goroutines. Use
// Bag.ForEachObs to receive the panic as an ordinary error instead.
func ForEachAsync[T any](p int, initial []T, process func(item T, push func(T))) {
	var bag Bag[T]
	if _, pe := bag.run(nil, p, initial, process, obs.Nop{}); pe != nil {
		panic(pe)
	}
}

// Bag is a reusable arena for the async scheduler: the single-worker stack
// and the per-worker steal queues live here and keep their capacity across
// runs, so a caller that drives the scheduler repeatedly (LLP-Prim's bag R
// restarts once per heap fix; mst.Workspace holds one Bag for exactly this)
// pays no per-run queue allocations after the first. The zero value is
// ready to use. A Bag serves one run at a time; ForEachAsync uses a fresh
// Bag per call and stays safe for concurrent use.
type Bag[T any] struct {
	stack  []T
	queues []workQueue[T]

	// Single-worker run state. Living in the Bag (rather than as locals that
	// escape into per-run closures) makes repeated single-worker runs
	// allocation-free: push and runOne are built once and read the current
	// run's process/panics through the receiver. panics also collects the
	// multi-worker runs' panics.
	process func(item T, push func(T))
	push    func(T)
	runOne  func(i int, x T) bool
	pushes  int64
	panics  par.PanicBox
}

// ForEachObs is ForEachAsync with cooperative cancellation and scheduler
// telemetry, drawing scheduler storage from the bag. Every worker polls ctx
// at work-item granularity (strided in the hot loop, every iteration when
// idle) and abandons the bag once the context is cancelled: the result is
// nil when the bag drained to quiescence, and ctx's error when the run was
// abandoned with items unprocessed.
//
// Scheduler traffic goes to col (nil means none): CtrSchedPush/CtrSchedPop
// item totals (initial items count as pushes), CtrSchedSteal successful
// steals, and the maximum per-worker queue depth as GaugeQueueDepth.
//
// A panic in process is recovered (reported as CtrSchedPanics), the
// remaining workers exit at their next item boundary, and the first panic
// is returned as a *par.PanicError once all workers have joined. A run that
// both panicked and was cancelled reports the panic.
func (b *Bag[T]) ForEachObs(ctx context.Context, p int, initial []T, process func(item T, push func(T)), col obs.Collector) error {
	cc := par.NewCanceller(ctx)
	aborted, pe := b.run(cc, p, initial, process, obs.Or(col))
	if pe != nil {
		return pe
	}
	if aborted {
		return cc.Err()
	}
	return nil
}

// runSingle is the single-worker engine: a plain LIFO stack, no goroutines.
// push appends through the shared b.stack header, so pushes during
// processing of the last item (when the loop just resliced the stack to
// empty) land in the same field the loop condition reads — no work is lost;
// the regression test TestForEachAsyncPushDuringLastItem pins this. All run
// state lives in Bag fields, so a warm Bag runs without allocating.
func (b *Bag[T]) runSingle(cc *par.Canceller, initial []T, process func(item T, push func(T)), col obs.Collector) (aborted bool, perr *par.PanicError) {
	defer col.Span("sched.async")()
	b.panics.Reset()
	b.process = process
	if b.push == nil {
		b.push = func(x T) { b.pushes++; b.stack = append(b.stack, x) }
		b.runOne = func(i int, x T) (panicked bool) {
			defer func() {
				if r := recover(); r != nil {
					b.panics.Capture(r, i)
					panicked = true
				}
			}()
			b.process(x, b.push)
			return false
		}
	}
	b.stack = append(b.stack[:0], initial...)
	b.pushes = int64(len(initial))
	var pops, depth int64
	// Return the (possibly grown) storage to the bag and drop the process
	// reference however this run ends, so the next run starts clean.
	defer func() { b.stack = b.stack[:0]; b.process = nil }()
	for i := 0; len(b.stack) > 0; i++ {
		if cc.Stride(i) {
			aborted = true
			break
		}
		if l := int64(len(b.stack)); l > depth {
			depth = l
		}
		x := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
		pops++
		if b.runOne(i, x) {
			aborted = len(b.stack) > 0
			break
		}
	}
	// Flush through the worker-0 view so round/worker-aware collectors
	// (obs.FlightRecorder) attribute the single worker's traffic correctly;
	// plain collectors pass through unchanged.
	wcol := obs.ForWorker(col, 0)
	wcol.Count(obs.CtrSchedPush, b.pushes)
	wcol.Count(obs.CtrSchedPop, pops)
	wcol.Count(obs.CtrSchedPanics, int64(b.panics.Count()))
	wcol.Gauge(obs.GaugeQueueDepth, depth)
	return aborted, b.panics.Err()
}

// run is the shared engine. It reports whether the run was abandoned
// before quiescence (always false with an inert canceller and no panic)
// and the first worker panic, if any.
func (b *Bag[T]) run(cc *par.Canceller, p int, initial []T, process func(item T, push func(T)), col obs.Collector) (aborted bool, perr *par.PanicError) {
	p = par.Workers(p)
	if p == 1 {
		return b.runSingle(cc, initial, process, col)
	}
	defer col.Span("sched.async")()
	col.Count(obs.CtrSchedPush, int64(len(initial)))
	var pending atomic.Int64
	pending.Store(int64(len(initial)))
	var stopped atomic.Bool
	if cap(b.queues) < p {
		b.queues = make([]workQueue[T], p)
	}
	queues := b.queues[:p]
	for i := range queues {
		// Reused queues may hold items abandoned by a cancelled run; this
		// run must start empty (capacity is kept).
		clear(queues[i].items)
		queues[i].items = queues[i].items[:0]
	}
	for i, x := range initial {
		q := &queues[i%p]
		q.items = append(q.items, x)
	}
	b.panics.Reset()
	// A panic the worker below does not catch itself — one raised by the
	// counter flush, since col is arbitrary user code — is boxed by Spawn.
	par.Spawn(p, &b.panics, func(self int) {
		my := &queues[self]
		// wcol is this worker's attributed view of the collector: a flight
		// recorder hands back the worker's own shard (events carry the
		// worker id, writes stay on the worker's cache lines), plain
		// collectors pass through unchanged.
		wcol := obs.ForWorker(col, self)
		endWorker := wcol.Span("sched.worker")
		var pushes, pops, steals, depth int64
		items := 0
		defer func() {
			// A panicking process unwinds through this recovery before the
			// counter flush, so the flush always happens and the worker exits
			// cleanly either way (no goroutine is ever leaked).
			if r := recover(); r != nil {
				b.panics.Capture(r, items-1)
				stopped.Store(true)
			}
			wcol.Count(obs.CtrSchedPush, pushes)
			wcol.Count(obs.CtrSchedPop, pops)
			wcol.Count(obs.CtrSchedSteal, steals)
			wcol.Gauge(obs.GaugeQueueDepth, depth)
			endWorker()
		}()
		push := func(x T) {
			pending.Add(1)
			pushes++
			if l := int64(my.push(x)); l > depth {
				depth = l
			}
		}
		for i := 0; ; i++ {
			// A sibling's panic (or a cancel observed by a sibling) stops
			// this worker at its next item boundary: mid-item state is never
			// torn, the current process call always completes.
			if stopped.Load() {
				return
			}
			if cc.Stride(i) {
				stopped.Store(true)
				return
			}
			x, ok := my.pop()
			if !ok {
				x, ok = steal(queues, self)
				if ok {
					steals++
				}
			}
			if ok {
				pops++
				items++
				process(x, push)
				pending.Add(-1)
				continue
			}
			if pending.Load() == 0 || stopped.Load() {
				return
			}
			// Idle: poll the context every spin, not just every stride — an
			// idle worker must notice a cancelled run promptly even when the
			// remaining items are hoarded by a stuck sibling.
			if cc.Poll() {
				stopped.Store(true)
				return
			}
			runtime.Gosched()
		}
	})
	if n := b.panics.Count(); n > 0 {
		col.Count(obs.CtrSchedPanics, int64(n))
	}
	// pending > 0 means items were abandoned in the queues.
	return pending.Load() > 0, b.panics.Err()
}

// workQueue is one worker's LIFO queue. The owner pushes and pops at the
// tail; thieves take from the head. A plain mutex keeps it simple — the
// queues are touched once per item, and items carry real work.
type workQueue[T any] struct {
	mu    sync.Mutex
	items []T
	_     [40]byte // pad to a cache line to avoid false sharing
}

// push appends x and returns the resulting queue length (for depth gauges).
func (q *workQueue[T]) push(x T) int {
	q.mu.Lock()
	q.items = append(q.items, x)
	n := len(q.items)
	q.mu.Unlock()
	return n
}

func (q *workQueue[T]) pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	n := len(q.items)
	if n == 0 {
		return zero, false
	}
	x := q.items[n-1]
	q.items[n-1] = zero
	q.items = q.items[:n-1]
	return x, true
}

// stealHalf removes the first half (head side) of the victim's queue.
func (q *workQueue[T]) stealHalf() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.items)
	if n == 0 {
		return nil
	}
	k := (n + 1) / 2
	got := make([]T, k)
	copy(got, q.items[:k])
	rest := copy(q.items, q.items[k:])
	var zero T
	for i := rest; i < n; i++ {
		q.items[i] = zero
	}
	q.items = q.items[:rest]
	return got
}

func steal[T any](queues []workQueue[T], self int) (T, bool) {
	var zero T
	p := len(queues)
	for off := 1; off < p; off++ {
		victim := (self + off) % p
		got := queues[victim].stealHalf()
		if len(got) == 0 {
			continue
		}
		my := &queues[self]
		my.mu.Lock()
		my.items = append(my.items, got[:len(got)-1]...)
		my.mu.Unlock()
		return got[len(got)-1], true
	}
	return zero, false
}

// ForEachOrdered processes items level-synchronously by priority: the
// minimum-priority level runs (in parallel on p workers) to exhaustion —
// items pushed at a priority at or below the current level join it — before
// the next level starts. This is the OBIM-style schedule under which
// priority-guided algorithms (Dijkstra-like relaxations) do near-minimal
// work. prio must be stable for a given item; push may only be called from
// within process.
//
// Worker panics follow the ForEachAsync contract: the first one is re-raised
// here as a *par.PanicError after every worker has joined.
func ForEachOrdered[T any](p int, initial []T, prio func(T) uint64, process func(item T, push func(T))) {
	// The level batches run through par.ForCollect, which already re-raises
	// a worker panic as a *par.PanicError; this also wraps the one a
	// single-worker batch raises inline.
	defer func() {
		if r := recover(); r != nil {
			panic(par.AsPanicError(r, -1))
		}
	}()
	type pushed struct {
		pr uint64
		x  T
	}
	bins := map[uint64][]T{}
	for _, x := range initial {
		bins[prio(x)] = append(bins[prio(x)], x)
	}
	for len(bins) > 0 {
		// Find the minimum priority level.
		first := true
		var cur uint64
		for pr := range bins {
			if first || pr < cur {
				cur, first = pr, false
			}
		}
		level := bins[cur]
		delete(bins, cur)
		for len(level) > 0 {
			out := par.ForCollect(p, len(level), 64, func(lo, hi int, out []pushed) []pushed {
				for i := lo; i < hi; i++ {
					process(level[i], func(x T) { out = append(out, pushed{prio(x), x}) })
				}
				return out
			})
			level = level[:0]
			for _, u := range out {
				if u.pr <= cur {
					level = append(level, u.x)
				} else {
					bins[u.pr] = append(bins[u.pr], u.x)
				}
			}
		}
	}
}
