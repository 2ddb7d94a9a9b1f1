package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/obs"
	"llpmst/internal/par"
	"llpmst/internal/registry"
	"llpmst/internal/replica"
	"llpmst/internal/resilient"
	"llpmst/internal/sched"
	"llpmst/internal/stream"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	// Pre-sized so that recording a span does not allocate inside the
	// allocation counts taken around mst runs.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

// do times fn as a span; fn receives the span's ID so that calls it makes
// can record child spans.
func (t *tracer) do(name, label string, parent int64, fn func(id int64)) (int64, time.Duration) {
	id := t.next.Add(1)
	start := time.Now()
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Label: label,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return id, end.Sub(start)
}

// find returns the spans with the given name and label.
func (t *tracer) find(name, label string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.Label == label {
			out = append(out, s)
		}
	}
	return out
}

func durations(ss []span) samples {
	out := make(samples, len(ss))
	for i, s := range ss {
		out[i] = time.Duration(s.End - s.Start)
	}
	return out
}

// selfTimes returns each span's duration minus the part of it that the
// union of its children covers.
func (t *tracer) selfTimes(ss []span) samples {
	t.mu.Lock()
	children := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	t.mu.Unlock()
	out := make(samples, len(ss))
	for i, s := range ss {
		iv := children[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layers measures one workload's layers in-process.
type layers struct {
	e   *env
	in  *graphInput
	tr  *tracer
	m   map[string]metric
	ctx context.Context
	// attempted and wrong count checked in-process calls.
	attempted, wrong int64
}

func (l *layers) set(name string, v float64, unit string) {
	l.m[name] = metric{v, unit}
}

// check records one checked call; a non-nil err is a wrong answer.
func (l *layers) check(err error) {
	l.attempted++
	if err != nil {
		l.wrong++
		logf("wrong: %v", err)
	}
}

// repeat calls fn at least minReps times and until budget has been spent,
// at most 200 times.
func repeat(minReps int, budget time.Duration, fn func()) {
	start := time.Now()
	for i := 0; i < 200 && (i < minReps || time.Since(start) < budget); i++ {
		fn()
	}
}

// runTraced is the traced run: it times every layer's public calls on the
// workload's inputs, then runs a short untraced HTTP phase to get the
// server's own share of the workload's median.
func runTraced(e *env, workload string, d deployment, in *graphInput) (*result, error) {
	l := &layers{e: e, in: in, tr: newTracer(), m: make(map[string]metric),
		ctx: context.Background()}
	l.mst()
	l.parSched()
	// Collect the backends' garbage first, so the registry's solves do not
	// pay for it.
	runtime.GC()
	belowMiss, err := l.registry()
	if err != nil {
		return nil, err
	}
	if err := l.stream(); err != nil {
		return nil, err
	}
	belowApply, err := l.replica()
	if err != nil {
		return nil, err
	}

	// The same requests over HTTP, untraced: what the layers below do not
	// account for is the server's HTTP and middleware share.
	runtime.GC()
	ph, err := runPhase(e, d, min(e.seconds, 10*time.Second), 1)
	if err != nil {
		return nil, err
	}
	httpP50 := ms(ph.lat.median())
	var below float64
	switch workload {
	case "stream":
		below = belowApply
		logf("layer-sum stream: e2e ack p50 %.4f ms = stream.apply.mixed %.4f + stream.fsync %.4f + replica.quorum_wait %.4f + http.self %.4f",
			httpP50, l.m["stream.apply.mixed_us"].Value/1e3, l.m["stream.fsync_us"].Value/1e3,
			l.m["replica.quorum_wait_us"].Value/1e3, httpP50-below)
	default:
		below = belowMiss
		logf("layer-sum %s: e2e p50 %.4f ms = registry.miss_self %.4f + resilient.solve %.4f + http.self %.4f",
			workload, httpP50, l.m["registry.miss_self.ms"].Value, l.m["resilient.solve.ms"].Value, httpP50-below)
	}
	l.set("http.self_ms", httpP50-below, "ms")

	dir := filepath.Join(e.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, e.seed))
	if err := l.tr.write(path); err != nil {
		return nil, err
	}
	logf("spans: %d written to %s", len(l.tr.spans), path)
	for _, name := range sortedKeys(l.m) {
		logf("%-36s %14.4f %s", name, l.m[name].Value, l.m[name].Unit)
	}
	wrong := l.wrong + ph.wrong + ph.badAdversary
	return &result{
		Correct:   wrong == 0,
		Attempted: l.attempted + ph.attempted,
		Failed:    l.wrong + ph.failed,
		Metrics:   l.m,
	}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// The backends timed standalone. The parallel ones are also timed at two
// workers, the reference host's CPU count.
var (
	seqAlgs = []mst.Algorithm{mst.AlgPrim, mst.AlgLLPPrim, mst.AlgKruskal}
	parAlgs = []mst.Algorithm{mst.AlgParallelBoruvka, mst.AlgLLPBoruvka, mst.AlgLLPPrimAsync, mst.AlgSemiringBoruvka}
)

// mst times mst.Run per backend and worker count with a warm Workspace,
// counting heap allocations per run.
func (l *layers) mst() {
	g, oracle := l.in.g, l.in.oracle
	for _, p := range []int{1, 2} {
		algs := parAlgs
		if p == 1 {
			algs = append(slices.Clone(seqAlgs), parAlgs...)
		}
		for _, alg := range algs {
			ws := mst.NewWorkspace()
			label := fmt.Sprintf("%s/w%d", alg, p)
			var times samples
			var allocs []float64
			runOnce := func() {
				var before, after runtime.MemStats
				var f *mst.Forest
				var err error
				runtime.ReadMemStats(&before)
				_, d := l.tr.do("mst.run", label, 0, func(int64) {
					f, err = mst.Run(alg, g, mst.Options{Workers: p, Workspace: ws})
				})
				runtime.ReadMemStats(&after)
				if err == nil && !f.Equal(oracle) {
					err = fmt.Errorf("%s on %s: forest differs from Kruskal", label, l.in.name)
				}
				l.check(err)
				times = append(times, d)
				allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
			}
			runOnce() // warms the workspace
			times, allocs = nil, nil
			repeat(3, time.Second, runOnce)
			l.set(fmt.Sprintf("mst.%s.w%d.ms", alg, p), ms(times.median()), "ms")
			if slices.Contains(parAlgs, alg) {
				l.set(fmt.Sprintf("mst.%s.w%d.allocs", alg, p), quantile(allocs, 0.5), "count")
			}
		}
	}
	var wb, wp mst.WorkMetrics
	_, err := mst.Run(mst.AlgLLPBoruvka, g, mst.Options{Workers: 1, Metrics: &wb})
	l.check(err)
	_, err = mst.Run(mst.AlgLLPPrim, g, mst.Options{Workers: 1, Metrics: &wp})
	l.check(err)
	l.set("mst.llp-boruvka.rounds", float64(wb.Rounds), "count")
	l.set("mst.llp-prim.early_fix_share", float64(wp.EarlyFixes)/float64(wp.EarlyFixes+wp.HeapFixes), "ratio")

	var verify samples
	repeat(3, time.Second, func() {
		var err error
		_, d := l.tr.do("mst.verify_min", "", 0, func(int64) { err = mst.VerifyMinimum(g, oracle) })
		l.check(err)
		verify = append(verify, d)
	})
	l.set("mst.verify_min.ms", ms(verify.median()), "ms")
}

// parSched times one two-worker fork-join dispatch with no work in it: the
// per-call cost every parallel round or frontier wave pays.
func (l *layers) parSched() {
	const calls = 2000
	noop := func(lo, hi int) {}
	item := func(int, func(int)) {}
	items := []int{0, 1}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"par.for", func() { par.For(2, 2, 1, noop) }},
		{"sched.async", func() { sched.ForEachAsync(2, items, item) }},
	} {
		var times samples
		for range calls {
			_, d := l.tr.do(c.name, "w2", 0, func(int64) { c.fn() })
			times = append(times, d)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			c.fn()
		}
		runtime.ReadMemStats(&after)
		l.set(c.name+".w2.us", us(times.median()), "us")
		l.set(c.name+".w2.allocs", float64(after.Mallocs-before.Mallocs)/calls, "count")
	}
}

// timedSolver is the registry's Solver: the resilient runner, timed as a
// child of the registry.solve span that called it.
type timedSolver struct {
	inner  *resilient.Runner
	tr     *tracer
	parent *atomic.Int64
}

func (s *timedSolver) Solve(ctx context.Context, g *graph.CSR) (resilient.Result, error) {
	var res resilient.Result
	var err error
	s.tr.do("resilient.solve", "", s.parent.Load(), func(int64) { res, err = s.inner.Solve(ctx, g) })
	return res, err
}

// registry times decoding, registration and cache-miss and cache-hit
// solves through a registry and resilient runner configured like
// mstserve's. It returns the median miss latency in ms.
func (l *layers) registry() (float64, error) {
	flight := obs.NewFlightRecorder(1, 1<<16)
	runner := resilient.New(resilient.Config{
		DefaultDeadline:  30 * time.Second,
		VerifyRate:       0.05,
		BreakerTripAfter: 3,
		BreakerCooldown:  5 * time.Second,
		Observer:         flight,
	})
	var cur atomic.Int64
	reg := registry.New(registry.Config{
		Solver:       &timedSolver{inner: runner, tr: l.tr, parent: &cur},
		SolveTimeout: 30 * time.Second,
		Observer:     flight,
	})
	id := l.in.name

	var decode samples
	repeat(3, time.Second, func() {
		var g *graph.CSR
		var err error
		_, d := l.tr.do("graph.decode", id, 0, func(int64) { g, err = registry.Decode(0, bytes.NewReader(l.in.body)) })
		if err == nil && g.NumEdges() != l.in.g.NumEdges() {
			err = fmt.Errorf("decode %s: %d edges, want %d", id, g.NumEdges(), l.in.g.NumEdges())
		}
		l.check(err)
		decode = append(decode, d)
	})
	l.set("graph.decode.ms", ms(decode.median()), "ms")

	var puts samples
	var misses []int64
	var hedged, hedgeWon, attempts int
	winners := map[mst.Algorithm]int{}
	solve := func(timed bool) {
		var err error
		_, d := l.tr.do("registry.put", id, 0, func(int64) { _, err = reg.PutData(id, bytes.NewReader(l.in.body)) })
		l.check(err)
		var res registry.SolveResult
		sid, _ := l.tr.do("registry.solve", "miss", 0, func(sid int64) {
			cur.Store(sid)
			res, err = reg.Solve(l.ctx, "bench", id, 0, registry.SolveOptions{})
		})
		if err == nil && (res.Cached || !res.Forest.Equal(l.in.oracle)) {
			err = fmt.Errorf("registry solve of %s: cached=%v, forest equal=%v", id, res.Cached, res.Forest.Equal(l.in.oracle))
		}
		l.check(err)
		if !timed || err != nil {
			return
		}
		puts = append(puts, d)
		misses = append(misses, sid)
		winners[res.Algorithm]++
		attempts += res.Attempts
		if res.Hedged {
			hedged++
		}
		if res.HedgeWon {
			hedgeWon++
		}
	}
	// Warm-up as in the server's set-up: the runner learns latencies.
	for range coldWarmups {
		solve(false)
	}
	repeat(3, 2*time.Second, func() { solve(true) })
	if len(misses) == 0 {
		return 0, errors.New("registry: no successful miss solve")
	}
	missSpans := l.tr.byID(misses)
	var inner []span
	for _, s := range l.tr.find("resilient.solve", "") {
		if slices.ContainsFunc(missSpans, func(m span) bool { return m.ID == s.Parent }) {
			inner = append(inner, s)
		}
	}
	n := float64(len(misses))
	missMS := ms(durations(missSpans).median())
	resMS := ms(durations(inner).median())
	l.set("registry.put.ms", ms(puts.median()), "ms")
	l.set("registry.miss_self.ms", ms(l.tr.selfTimes(missSpans).median()), "ms")
	l.set("resilient.solve.ms", resMS, "ms")
	winner := mostCommon(winners)
	backend, ok := l.m[fmt.Sprintf("mst.%s.w%d.ms", winner, par.Workers(0))]
	if !ok {
		backend = l.m[fmt.Sprintf("mst.%s.w1.ms", winner)]
	}
	l.set("resilient.overhead.ms", resMS-backend.Value, "ms")
	l.set("resilient.hedge_rate", float64(hedged)/n, "ratio")
	l.set("resilient.hedge_win_rate", float64(hedgeWon)/max(float64(hedged), 1), "ratio")
	l.set("resilient.attempts_per_solve", float64(attempts)/n, "count")
	logf("registry: %d timed miss solves of %s, winners %v", len(misses), id, winners)

	// Cache hits, traced and untraced: the difference is the tracing
	// overhead of one span.
	const hits = 2000
	var traced, plain samples
	for range hits {
		var err error
		_, d := l.tr.do("registry.solve", "hit", 0, func(int64) {
			_, err = reg.Solve(l.ctx, "bench", id, 0, registry.SolveOptions{})
		})
		if err != nil {
			return 0, err
		}
		traced = append(traced, d)
		start := time.Now()
		if _, err := reg.Solve(l.ctx, "bench", id, 0, registry.SolveOptions{}); err != nil {
			return 0, err
		}
		plain = append(plain, time.Since(start))
	}
	l.set("registry.hit_us", us(traced.median()), "us")
	logf("tracing overhead: registry.hit traced %.3f us, untraced %.3f us", us(traced.median()), us(plain.median()))
	if err := runner.Drain(l.ctx); err != nil {
		return 0, err
	}
	return missMS, nil
}

// byID returns the recorded spans with the given IDs.
func (t *tracer) byID(ids []int64) []span {
	want := make(map[int64]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if want[s.ID] {
			out = append(out, s)
		}
	}
	return out
}

func mostCommon[K comparable](m map[K]int) K {
	var best K
	n := -1
	for k, c := range m {
		if c > n {
			best, n = k, c
		}
	}
	return best
}

// Batches applied by the in-process stream and replica measurements.
const (
	layerMixedBatches   = 512
	layerReplicaBatches = 256
	layerChurnSteps     = 8
)

// stream times the engine alone: mixed batches with fsync taken apart from
// the apply, a snapshot at the mixed stream's size, and churn deletes.
func (l *layers) stream() error {
	dir, err := os.MkdirTemp(l.e.work, "layers-")
	if err != nil {
		return err
	}
	eng, _, err := stream.Open(stream.Config{Vertices: mixedVertices, Dir: filepath.Join(dir, "mixed"), Sync: stream.SyncOff})
	if err != nil {
		return err
	}
	defer eng.Close()
	live := newLiveSet(mixedVertices, mixedSeed(l.e.seed))
	b, err := preload(l.ctx, eng, live.fill(mixedTarget))
	if err != nil {
		return err
	}
	wal := filepath.Join(dir, "mixed", "wal.log")
	st0, err := os.Stat(wal)
	if err != nil {
		return err
	}
	var apply, fsync samples
	swaps := 0
	for range layerMixedBatches {
		b++
		ops := live.mixedBatch(mixedOps, mixedTarget)
		var res stream.ApplyResult
		_, d := l.tr.do("stream.apply", "mixed", 0, func(int64) { res, err = eng.ApplyCtx(l.ctx, stream.Batch{ID: b, Ops: ops}) })
		if err != nil {
			return fmt.Errorf("stream apply: %w", err)
		}
		apply = append(apply, d)
		swaps += res.Swaps
		_, d = l.tr.do("stream.fsync", "", 0, func(int64) { err = eng.Sync() })
		if err != nil {
			return fmt.Errorf("stream sync: %w", err)
		}
		fsync = append(fsync, d)
	}
	st, err := os.Stat(wal)
	if err != nil {
		return err
	}
	var snaps samples
	for range 3 {
		_, d := l.tr.do("stream.snapshot", "", 0, func(int64) { err = eng.Snapshot() })
		if err != nil {
			return fmt.Errorf("stream snapshot: %w", err)
		}
		snaps = append(snaps, d)
	}
	want, err := live.oracleForest()
	if err != nil {
		return err
	}
	l.check(sameForest("stream mixed", eng.Forest(), want))
	l.set("stream.apply.mixed_us", us(apply.median()), "us")
	l.set("stream.fsync_us", us(fsync.median()), "us")
	l.set("stream.snapshot_ms", ms(snaps.median()), "ms")
	l.set("stream.wal_bytes_per_batch", float64(st.Size()-st0.Size())/layerMixedBatches, "bytes")
	l.set("stream.swaps_per_batch", float64(swaps)/layerMixedBatches, "count")

	churn := newChurnInput(churnSeed(l.e.seed))
	ce, _, err := stream.Open(stream.Config{Vertices: churn.live.n, Dir: filepath.Join(dir, "churn"), Sync: stream.SyncOff})
	if err != nil {
		return err
	}
	defer ce.Close()
	batch, err := preload(l.ctx, ce, insertBatches(churn.live.edges))
	if err != nil {
		return err
	}
	var deletes samples
	recomputes := 0
	for range 2 * layerChurnSteps {
		ops, isDelete := churn.step()
		batch++
		var res stream.ApplyResult
		label := "churn-insert"
		if isDelete {
			label = "churn"
		}
		_, d := l.tr.do("stream.apply", label, 0, func(int64) { res, err = ce.ApplyCtx(l.ctx, stream.Batch{ID: batch, Ops: ops}) })
		if err != nil {
			return fmt.Errorf("churn apply: %w", err)
		}
		if isDelete {
			deletes = append(deletes, d)
			recomputes += res.Recomputes
			if res.Recomputes == 0 {
				l.check(errors.New("churn delete did not recompute: the adversary stopped biting"))
			}
		}
	}
	want, err = churn.live.oracleForest()
	if err != nil {
		return err
	}
	l.check(sameForest("stream churn", ce.Forest(), want))
	l.set("stream.apply.churn_ms", ms(deletes.median()), "ms")
	l.set("stream.recomputes_per_churn", float64(recomputes)/layerChurnSteps, "count")
	return nil
}

func sameForest(what string, got, want []graph.Edge) error {
	if !slices.Equal(canonicalEdges(slices.Clone(got)), want) {
		return fmt.Errorf("%s: forest of %d edges differs from the oracle's %d", what, len(got), len(want))
	}
	return nil
}

// preload applies batches to a fresh engine, untimed, and returns the last
// batch ID.
func preload(ctx context.Context, eng *stream.Engine, batches [][]stream.Op) (uint64, error) {
	var id uint64
	for _, ops := range batches {
		id++
		if _, err := eng.ApplyCtx(ctx, stream.Batch{ID: id, Ops: ops}); err != nil {
			return id, fmt.Errorf("preload: %w", err)
		}
	}
	return id, nil
}

// timedConn times every record shipped to a follower as a child of the
// replica.apply span in flight.
type timedConn struct {
	replica.Conn
	tr     *tracer
	parent *atomic.Int64
}

func (c timedConn) Ship(ctx context.Context, prev uint64, rec []byte) (uint64, error) {
	var hw uint64
	var err error
	c.tr.do("replica.ship", "", c.parent.Load(), func(int64) { hw, err = c.Conn.Ship(ctx, prev, rec) })
	return hw, err
}

// replica times quorum-replicated applies: a primary at quorum 2/3 over two
// in-process followers, every engine fsyncing each batch. It returns the
// median apply latency in ms.
func (l *layers) replica() (float64, error) {
	dir, err := os.MkdirTemp(l.e.work, "replica-")
	if err != nil {
		return 0, err
	}
	open := func(name string) (*stream.Engine, error) {
		e, _, err := stream.Open(stream.Config{Vertices: mixedVertices, Dir: filepath.Join(dir, name),
			Sync: stream.SyncAlways, SnapshotEvery: 1024})
		return e, err
	}
	pe, err := open("primary")
	if err != nil {
		return 0, err
	}
	defer pe.Close()
	var cur atomic.Int64
	var specs []replica.FollowerSpec
	for i := range 2 {
		fe, err := open(fmt.Sprintf("follower%d", i+1))
		if err != nil {
			return 0, err
		}
		defer fe.Close()
		lb := replica.NewLoopback(replica.NewAcceptor(fe))
		specs = append(specs, replica.FollowerSpec{
			Name: fmt.Sprintf("follower%d", i+1),
			Dial: func(context.Context) (replica.Conn, error) { return timedConn{lb, l.tr, &cur}, nil },
		})
	}
	p, err := replica.NewPrimary(pe, replica.Config{Stream: "mixed", Level: replica.ReplicateQuorum}, specs)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	deadline := time.Now().Add(10 * time.Second)
	for !p.Healthy() || slices.ContainsFunc(p.Status(), func(f replica.FollowerStatus) bool { return !f.Current }) {
		if time.Now().After(deadline) {
			return 0, errors.New("replica: followers not current within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	live := newLiveSet(mixedVertices, mixedSeed(l.e.seed))
	b, err := preload(l.ctx, pe, live.fill(mixedTarget))
	if err != nil {
		return 0, err
	}
	var applies []int64
	for range layerReplicaBatches {
		b++
		ops := live.mixedBatch(mixedOps, mixedTarget)
		id, _ := l.tr.do("replica.apply", "", 0, func(id int64) {
			cur.Store(id)
			_, err = pe.ApplyCtx(l.ctx, stream.Batch{ID: b, Ops: ops})
		})
		if err != nil {
			return 0, fmt.Errorf("replicated apply: %w", err)
		}
		applies = append(applies, id)
	}
	cur.Store(0)
	applySpans := l.tr.byID(applies)
	var ships []span
	for _, s := range l.tr.find("replica.ship", "") {
		if s.Parent != 0 {
			ships = append(ships, s)
		}
	}
	want, err := live.oracleForest()
	if err != nil {
		return 0, err
	}
	l.check(sameForest("replica primary", pe.Forest(), want))
	applyUS := us(durations(applySpans).median())
	l.set("replica.apply_us", applyUS, "us")
	l.set("replica.ship_us", us(durations(ships).median()), "us")
	l.set("replica.ship_p99_us", us(durations(ships).quantile(0.99)), "us")
	l.set("replica.quorum_wait_us", applyUS-l.m["stream.apply.mixed_us"].Value-l.m["stream.fsync_us"].Value, "us")
	logf("replica.apply self (outside ships) p50 %.3f us over %d applies, %d ships",
		us(l.tr.selfTimes(applySpans).median()), len(applySpans), len(ships))
	return applyUS / 1e3, nil
}
