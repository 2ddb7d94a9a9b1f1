package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the smallest amount of work a worker grabs at once in
// dynamically scheduled loops. Chosen so that the atomic fetch-add that
// hands out chunks is amortized over a few microseconds of work.
const DefaultGrain = 1024

// Workers normalizes a requested worker count: values <= 0 mean
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Spawn is the runtime's only goroutine-spawning site, the fork-join
// primitive every parallel loop, the work-stealing scheduler and the LLP
// drivers are built on. It runs body(w) for every w in [0, p) on its own
// goroutine and returns once all of them have exited, so nothing it starts
// outlives the call. A panic escaping body is recovered into panics (with
// item -1; a body that knows which work item it was on captures its own
// panic first), so a crashing worker neither kills the process nor leaks.
// Spawn returns panics.Err(); panics must not be nil.
func Spawn(p int, panics *PanicBox, body func(w int)) *PanicError {
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			defer func() { panics.Capture(recover(), -1) }()
			body(w)
		}()
	}
	wg.Wait()
	return panics.Err()
}

// chunking normalizes a chunked loop over n > 0 items: the grain
// (DefaultGrain if grain <= 0) and the number of workers worth starting,
// which is 1 when the whole range fits in one chunk or only one worker was
// asked for — the loops then run the body inline, with no goroutine and no
// allocation.
func chunking(p, n, grain int) (workers, g int) {
	if grain <= 0 {
		grain = DefaultGrain
	}
	return min(Workers(p), (n+grain-1)/grain), grain
}

// For runs body over the index range [0, n) using p workers. The range is
// handed out in chunks of size grain (DefaultGrain if grain <= 0) through a
// shared atomic counter, which gives dynamic load balancing for irregular
// work such as graph traversals. body must be safe to call concurrently on
// disjoint ranges.
func For(p, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if w, _ := chunking(p, n, grain); w == 1 {
		body(0, n)
		return
	}
	ForW(p, n, grain, func(_, lo, hi int) { body(lo, hi) })
}

// ForW is For with the worker's index passed to body: body(w, lo, hi) may
// use w (in [0, p)) to select per-worker state — an attributed collector
// shard, a padded counter cell — without any further coordination. The
// sequential fast path passes w = 0.
//
// A worker panic is re-raised on the caller as a *PanicError whose Item is
// the panicking chunk's start, only after every worker has exited. The
// panicking worker stops; its siblings keep claiming chunks, so the
// non-panicking work completes.
func ForW(p, n, grain int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	p, g := chunking(p, n, grain)
	if p == 1 {
		body(0, 0, n)
		return
	}
	var s struct {
		next   atomic.Int64
		panics PanicBox
	}
	if pe := Spawn(p, &s.panics, func(w int) {
		lo := -1
		defer func() { s.panics.Capture(recover(), lo) }()
		for {
			lo = int(s.next.Add(int64(g))) - g
			if lo >= n {
				return
			}
			body(w, lo, min(lo+g, n))
		}
	}); pe != nil {
		panic(pe)
	}
}

// ForEach runs body(i) for every i in [0, n) using p workers. Convenience
// wrapper over ForW for element-wise loops. The sequential cases loop inline
// rather than going through ForW, so they allocate nothing (no wrapper
// closure) — algorithms calling ForEach once per round rely on this.
func ForEach(p, n, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	if w, _ := chunking(p, n, grain); w == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	ForW(p, n, grain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Do runs the given thunks concurrently on up to p workers and waits for all
// of them. Used for small fixed fan-outs (e.g. sorting halves). A panicking
// thunk is re-raised as a *PanicError whose Item is its index.
func Do(p int, thunks ...func()) {
	if Workers(p) == 1 || len(thunks) == 1 {
		for _, t := range thunks {
			t()
		}
		return
	}
	// Workers get a copy, so the caller's variadic array never escapes and
	// the sequential path above stays allocation-free.
	ts := slices.Clone(thunks)
	ForW(p, len(ts), 1, func(_, lo, hi int) {
		for _, t := range ts[lo:hi] {
			t()
		}
	})
}
