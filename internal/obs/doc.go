// Package obs is the observability layer of the parallel runtime: named
// phase timers (spans) and machine-level scheduler/algorithm counters and
// gauges, behind pluggable Tracer/Collector interfaces.
//
// # Zero cost when nobody listens
//
// The design constraint is that instrumentation must be free when nobody is
// listening: algorithms call through a Collector unconditionally, and the
// no-op implementation (Nop, returned by Or for a nil Collector) costs a
// dynamic dispatch to an empty method — no allocation, no time syscalls, no
// atomics. The hot paths therefore never branch on "is tracing enabled";
// they accumulate worker-local counts and flush once per worker, so even a
// live FlightRecorder perturbs the measured run only at quiescence
// points.
//
// Counters and gauges are small enums, not strings, so recording them is an
// array-indexed atomic add and the zero-allocation property is checkable
// with testing.AllocsPerRun (see obs_test.go). This matters doubly now that
// the algorithms advertise O(1) steady-state allocations with a reused
// mst.Workspace: an observer that allocated per event would break that
// contract from the outside.
//
// # Plugging in
//
// Set mst.Options.Observer, or attach a Collector to a context with
// NewContext (surfaced as llpmst.WithObserver) so runs that already receive
// the context report without extra plumbing. FlightRecorder is the one
// in-process implementation: per-worker event rings with round and worker
// attribution, counter totals, gauge maxima and span histograms, exported
// as the JSON timeline behind mstbench -trace-out, a Chrome trace, a
// per-round CSV, or Prometheus text. Every method, spans included, is safe
// for concurrent use, so concurrent portfolio legs share one recorder. The
// counter totals are cross-checked against mst.WorkMetrics in the test
// suite, so the two telemetry channels cannot drift apart.
package obs
