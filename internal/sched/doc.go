// Package sched provides Galois-style data-driven schedulers: workers pull
// items from a concurrent work bag, process them, and push newly discovered
// work back, until global quiescence. The paper's LLP-Prim runs on exactly
// this kind of runtime ("We use the Galois Library as our underlying runtime
// framework", §VII) — its R set is an unordered bag whose elements "can be
// explored in parallel" in any order.
//
// # Schedulers
//
// Two schedulers are provided:
//
//   - ForEachAsync: unordered, per-worker LIFO queues with work stealing —
//     the Galois do_all/for_each analogue.
//   - ForEachOrdered: priority-level-synchronous — the OBIM
//     (ordered-by-integer-metric) analogue, processing the minimum-priority
//     level in parallel before moving on.
//
// Both start their workers through par.Spawn, the runtime's one
// goroutine-spawning site: the async scheduler runs one work-stealing loop
// per spawned worker, and the ordered one runs each level batch as a
// par.ForCollect.
//
// # Reusable bags, cancellation and telemetry
//
// The one-shot ForEachAsync allocates its queues per call. A caller that
// drives the scheduler repeatedly (the per-component loop of LLP-Prim's
// async variant, a server answering repeated queries) instead keeps a
// Bag[T] and calls its ForEachObs method: queue and stack storage, the
// panic box, and the single-worker path's closures all live in the Bag and
// are reused, so a warm Bag runs without allocating. A Bag is one run's
// state — never share one across concurrent runs. mst.Workspace embeds a
// Bag per workspace for exactly this purpose.
//
// ForEachObs is also the context-aware, observed entry point: it polls for
// cancellation at work-item granularity and returns the context's error
// when the run is abandoned with work left in the bag, and it reports
// scheduler traffic — pushes, pops, steals, queue depth — to an
// obs.Collector. Workers accumulate counts locally and flush once at exit,
// so observation does not perturb the schedule.
//
// # Failure containment
//
// A panic in process stops the run: the first panic is captured as a
// *par.PanicError, every other worker exits cleanly at its next item
// boundary, and the error is surfaced once all workers have joined — the
// plain entry points re-raise it, ForEachObs returns it. Either way no
// goroutine leaks and no pushed work is silently dropped without the
// caller learning the run was aborted.
package sched
