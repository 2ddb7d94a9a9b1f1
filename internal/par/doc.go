// Package par provides the shared-memory parallel runtime used by every
// algorithm in this repository. It is the Go substitute for the Galois and
// GBBS C++ runtimes the paper builds on: dynamically load-balanced parallel
// loops, parallel prefix sums, parallel sorting, parallel reductions,
// workspace-friendly compaction, and atomic-minimum updates on packed
// (weight, id) keys.
//
// # One spawn site
//
// Spawn is the only place in par, sched and llp that starts goroutines: it
// runs body(w) for w in [0, p), joins every worker and returns the first
// panic as a *PanicError. Everything parallel is a view over it:
//
//   - ForW hands out chunks of grain indices through a shared atomic
//     counter, which load-balances irregular work such as graph traversals
//     (DefaultGrain amortizes that atomic over a few microseconds of work),
//     and passes each chunk the index of the worker running it.
//   - For, ForEach, Do and ForCollect/ForCollectIntoW are thin adapters over
//     ForW; the compactions, scans, sums and sorts below use them.
//   - sched.Bag runs one work-stealing loop per spawned worker, and the llp
//     drivers sweep their predicates through For and ForEach.
//
// # Worker counts and grain sizes
//
// All entry points take an explicit worker count p. p <= 0 means
// runtime.GOMAXPROCS(0). Every function degrades to a plain sequential loop
// when p == 1 or when the input is below the grain size, so single-threaded
// callers pay no synchronization cost — and, on the sequential paths, no
// allocations: the fast paths run the body inline instead of spawning
// wrapped goroutine closures. This property is load-bearing for the
// zero-allocation workspace contract of internal/mst (see
// mst.Options.Workspace) and is pinned by allocation-count tests, as are
// the per-call allocation ceilings of the two-worker paths.
//
// # Families of helpers
//
//   - Loops: ForW (chunks, with the worker index), For (chunks), ForEach
//     (per index), Do (fixed thunks), ForCollect and ForCollectIntoW (chunks
//     appending to per-chunk buffers, concatenated).
//   - Reductions: SumInt64, CountTrue.
//   - Scans and compaction: ExclusiveScan, and the order-preserving *Into
//     family (FilterInto, FilterMapInto, PackIndexInto) that writes into
//     caller-owned buffers with cache-line-padded per-worker counter blocks
//     (PadBlock, PadStride), so steady-state callers allocate nothing; a
//     nil dst gets a fresh slice.
//   - Sorting: SortUint64.
//   - Atomic keys: PackKey packs a float32 weight and an edge id into one
//     totally ordered uint64 (KeyWeight/KeyID unpack it); WriteMin is the
//     lock-free priority-update primitive of GBBS-style parallel Boruvka,
//     and MinKeys/MinRowsInto the atomics-free min-plus row reductions.
//   - Cancellation: Canceller turns a context.Context into a strided,
//     amortized poll usable from inner loops (see cancel.go).
//   - Panic containment: PanicBox collects the first worker panic of a
//     parallel region; Spawn recovers every worker, joins them all, and the
//     loops re-raise a single typed *PanicError (see panic.go).
package par
