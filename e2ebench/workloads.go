package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"llpmst/internal/graph"
	"llpmst/internal/stream"
)

// Workloads. Every one is a closed loop: a client sends its next request
// only after the previous reply has been read.
//
//   - cold-dense: one client uploads a new version of a ~10⁶-edge R-MAT
//     graph (PUT /graphs/{id}) and solves it once, a cache miss. The solver
//     stack (mst, par/sched/llp, resilient) does nearly all the work. The
//     graph is very dense, so the runner makes semi-boruvka primary and
//     hedges every solve with llp-prim-async, which usually wins: both
//     legs, the hedge and the portfolio run on every solve.
//   - stream: one client writes to a primary plus two followers at quorum
//     2/3 with fsync on every batch, interleaving the cheap mixed stream
//     (WAL append, fsync and quorum shipping dominate) with the bridge-churn
//     adversary (every delete recomputes a large component).
//
// Left out, so that each kept workload gets a long run within the time the
// whole benchmark may take:
//   - cached solves (HTTP, middleware and registry hit only): on the 2-CPU
//     reference host their throughput and latency moved by about 20%
//     between runs. The registry hit and the server's HTTP share are still
//     measured by every traced run.
//   - cold solves of the sparse road grid and of the scale-16 R-MAT: they
//     take the runner's other two density branches, but only about half of
//     their solves are hedged, and whether a solve is hedged follows the
//     host's speed, which spread their latency past any usable bound. The
//     backends those branches pick (llp-boruvka, llp-prim-async) are timed
//     in every traced run of cold-dense.
var workloads = []string{"cold-dense", "stream"}

// setupRepeats is how many times a run sets the deployment up. Set-up time
// is the median over the set-ups, and the timed phase is split evenly
// across the deployments they produce, so one process's heap layout or GC
// pacing does not decide a run's figures: peak RSS is the median over the
// deployments.
const setupRepeats = 5

// env is what every workload needs from the run.
type env struct {
	root    string
	bin     string
	seed    int64
	seconds time.Duration
	work    string // scratch directory of this run
	c       *client
}

// phase is the outcome of one workload's timed phase, pooled over its
// deployments.
type phase struct {
	setups      samples
	unavailable int // 503s and resent batches in set-up, before the deployment was ready
	lat         samples
	ops         int64 // completed main operations
	elapsed     time.Duration
	cpu         time.Duration // server CPU time during the timed phase
	windows     []window
	open        windowStart
	cl          cluster   // the deployment being measured
	peakMB      []float64 // per deployment, sum of VmHWM over its servers
	attempted   int64
	failed      int64
	// wrong counts replies that were 2xx but incorrect; badAdversary
	// counts churn deletes that did not recompute.
	wrong        int64
	badAdversary int64
}

// window is one stretch of the timed phase that the load loop ends at a
// boundary of its traffic (one cold iteration; four whole churn cycles), so
// every window holds the same mix of operations.
//
// The host shares its CPUs with other machines' work, which comes and goes
// in episodes: the hypervisor's steal time (the time it ran something else
// while this machine wanted a CPU) ranged from 0 to 60% of a run's busy CPU
// time, and a window's latency rose with its steal from the first percent
// on. So the run's JSON metrics are taken over the quieter half of its
// windows, the half with the least host steal, chosen by the steal
// measured in each window and never by its figures. A slower program is
// slower in every window. The named metrics printed by report use every
// sample of the run.
type window struct {
	lat     samples // main-operation latencies
	ops     int64
	elapsed time.Duration
	cpu     time.Duration // server CPU time
	steal   float64       // host steal share of busy CPU time
}

// windowStart is where the open window began.
type windowStart struct {
	at          time.Time
	lat         int
	ops         int64
	cpu         time.Duration
	busy, steal int64
}

// startWindow opens a window at the current operation.
func (ph *phase) startWindow() error {
	_, cpu, err := ph.cl.usage()
	if err != nil {
		return err
	}
	busy, steal, err := hostCPU()
	if err != nil {
		return err
	}
	ph.open = windowStart{at: time.Now(), lat: len(ph.lat), ops: ph.ops, cpu: cpu, busy: busy, steal: steal}
	return nil
}

// endWindow closes the open window and opens the next; the load loop calls
// it at its traffic's boundaries. A window still open when the deployment's
// time runs out is dropped.
func (ph *phase) endWindow() error {
	o := ph.open
	elapsed := time.Since(o.at)
	_, cpu, err := ph.cl.usage()
	if err != nil {
		return err
	}
	busy, steal, err := hostCPU()
	if err != nil {
		return err
	}
	w := window{lat: slices.Clone(ph.lat[o.lat:]), ops: ph.ops - o.ops, elapsed: elapsed, cpu: cpu - o.cpu}
	if busy > o.busy {
		w.steal = float64(steal-o.steal) / float64(busy-o.busy)
	}
	ph.windows = append(ph.windows, w)
	logf("window %d: ops=%d p50=%.4f ms ops/s=%.2f cpu/op=%.4f ms steal=%.1f%%", len(ph.windows), w.ops,
		ms(w.lat.median()), float64(w.ops)/elapsed.Seconds(), ms(w.cpu)/float64(w.ops), 100*w.steal)
	return ph.startWindow()
}

// deployment is one workload's set-up state.
type deployment interface {
	// setup launches the servers and returns once the timed phase can
	// start; it counts 503s and resent batches seen on the way.
	setup(e *env, unavailable *int) (cluster, error)
	// load drives the timed phase until the deadline, ending a window
	// at each boundary of its traffic.
	load(e *env, cl cluster, until time.Time, ph *phase) error
	// check verifies the deployment's end state.
	check(e *env, cl cluster, ph *phase)
	// report prints the workload's named metrics.
	report(e *env, ph *phase)
}

// runPhase sets the deployment up repeats times and measures each
// deployment for an equal share of the given time.
func runPhase(e *env, d deployment, seconds time.Duration, repeats int) (*phase, error) {
	ph := &phase{}
	for i := range repeats {
		start := time.Now()
		cl, err := d.setup(e, &ph.unavailable)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		ph.setups = append(ph.setups, time.Since(start))
		err = measure(e, d, cl, seconds/time.Duration(repeats), ph)
		cl.stop()
		if err != nil {
			return nil, err
		}
	}
	d.report(e, ph)
	if ph.ops == 0 || len(ph.lat) == 0 {
		return nil, fmt.Errorf("no operation completed in the timed phase (%d attempted, %d failed)", ph.attempted, ph.failed)
	}
	return ph, nil
}

// quiet returns the run's figures over the quieter half of its windows,
// the half with the least host steal: the median latency of their samples,
// their operations per second and their server CPU time per operation.
// Windows with as little steal as the median window are all kept, so that
// ties are not broken by position.
func (ph *phase) quiet() (p50 time.Duration, opsPerSec, cpuPerOp float64, err error) {
	ws := slices.Clone(ph.windows)
	if len(ws) == 0 {
		return 0, 0, 0, fmt.Errorf("no window completed in the timed phase (%d operations)", ph.ops)
	}
	slices.SortStableFunc(ws, func(a, b window) int { return cmp.Compare(a.steal, b.steal) })
	n := (len(ws) + 1) / 2
	for n < len(ws) && ws[n].steal == ws[n-1].steal {
		n++
	}
	quiet := ws[:n]
	var lat samples
	var ops int64
	var elapsed, cpu time.Duration
	for _, w := range quiet {
		lat = append(lat, w.lat...)
		ops += w.ops
		elapsed += w.elapsed
		cpu += w.cpu
	}
	if len(lat) == 0 {
		return 0, 0, 0, errors.New("no latency sample in the quieter half of the windows")
	}
	logf("quieter half: %d of %d windows, host steal %.1f%% to %.1f%% (all windows up to %.1f%%), %d operations, %d latency samples",
		len(quiet), len(ws), 100*quiet[0].steal, 100*quiet[len(quiet)-1].steal, 100*ws[len(ws)-1].steal, ops, len(lat))
	return lat.median(), float64(ops) / elapsed.Seconds(), ms(cpu) / float64(ops), nil
}

// measure drives one deployment's share of the timed phase, checks it and
// scrapes every server's registry and resilient counters.
func measure(e *env, d deployment, cl cluster, seconds time.Duration, ph *phase) error {
	_, cpu0, err := cl.usage()
	if err != nil {
		return err
	}
	ph.cl = cl
	if err := ph.startWindow(); err != nil {
		return err
	}
	start := time.Now()
	err = d.load(e, cl, start.Add(seconds), ph)
	ph.elapsed += time.Since(start)
	if err != nil {
		return err
	}
	peak, cpu1, err := cl.usage()
	if err != nil {
		return err
	}
	ph.cpu += cpu1 - cpu0
	ph.peakMB = append(ph.peakMB, peak)
	logf("deployment %d: peak RSS %.1f MB, %d windows so far", len(ph.peakMB), peak, len(ph.windows))
	d.check(e, cl, ph)
	for i, s := range cl {
		logf("server%d: %s", i, strings.Join(s.cmd.Args, " "))
		for _, fam := range []string{"llpmst_registry_total", "llpmst_resilient_total"} {
			m, err := e.c.scrape(s, fam)
			if err != nil {
				return fmt.Errorf("scrape server %d: %w", i, err)
			}
			counters(fmt.Sprintf("server%d %s", i, fam), m)
		}
	}
	return nil
}

// --- cold solves ---

type coldLoad struct {
	in  *graphInput
	pad *graphInput // tiny graph that moves the runner's verify stride
	// per timed-phase iteration
	putLat   samples
	bytes    int64
	hedged   int
	verified int
	algs     map[string]int
}

// solveReply is the subset of mstserve's solve reply the benchmark checks.
type solveReply struct {
	ForestEdges int     `json:"forest_edges"`
	Weight      float64 `json:"weight"`
	Algorithm   string  `json:"algorithm"`
	Hedged      bool    `json:"hedged"`
	HedgeWon    bool    `json:"hedge_won"`
	Attempts    int     `json:"attempts"`
	Verified    bool    `json:"verified"`
	Cached      bool    `json:"cached"`
}

// check compares a reply with the Kruskal oracle; a cold solve must also
// have missed the cache.
func (r *solveReply) check(in *graphInput) error {
	if r.Weight != in.oracle.Weight || r.ForestEdges != len(in.oracle.EdgeIDs) || r.Cached {
		return fmt.Errorf("%s: got weight %v, %d edges, cached=%v; want %v, %d, a cache miss",
			in.name, r.Weight, r.ForestEdges, r.Cached, in.oracle.Weight, len(in.oracle.EdgeIDs))
	}
	return nil
}

// coldWarmups is the number of upload+solve iterations in set-up: the
// runner's first solves of a graph size are hedged until it has learned
// latencies for it.
const coldWarmups = 2

// verifyStride is the runner's verify stride at mstserve's default
// -verify-rate 0.05: the winner of every 20th solve is also checked with
// mst.VerifyMinimum before the reply.
const verifyStride = 20

func (w *coldLoad) setup(e *env, unavailable *int) (cluster, error) {
	s, err := startServer(e.bin, nil)
	if err != nil {
		return nil, err
	}
	cl := cluster{s}
	if err := e.c.waitHealthy(s, unavailable); err != nil {
		cl.stop()
		return nil, err
	}
	for range coldWarmups {
		_, _, r, err := w.iteration(e, s)
		if err == nil {
			err = r.check(w.in)
		}
		if err != nil {
			cl.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := w.alignVerify(e, s); err != nil {
		cl.stop()
		return nil, err
	}
	return cl, nil
}

// alignVerify solves the tiny pad graph until the runner's next solve is
// one it verifies. The first timed solve of every deployment then pays for
// VerifyMinimum, so a run holds one verified solve per deployment (while a
// deployment makes at most verifyStride timed solves) however fast the
// host is.
func (w *coldLoad) alignVerify(e *env, s *serverProc) error {
	m, err := e.c.scrape(s, "llpmst_resilient_total")
	if err != nil {
		return err
	}
	url := s.base + "/graphs/" + w.pad.name
	for n := int(m["solves"]); n%verifyStride != verifyStride-1; n++ {
		var r solveReply
		if _, err := e.c.do("PUT", url, w.pad.body, nil); err != nil {
			return fmt.Errorf("pad upload: %w", err)
		}
		if _, err := e.c.do("POST", url+"/solve", nil, &r); err != nil {
			return fmt.Errorf("pad solve: %w", err)
		}
		if err := r.check(w.pad); err != nil {
			return err
		}
	}
	return nil
}

// iteration uploads a new version and solves it once (a cache miss).
func (w *coldLoad) iteration(e *env, s *serverProc) (put, solve time.Duration, r solveReply, err error) {
	url := s.base + "/graphs/" + w.in.name
	if put, err = e.c.do("PUT", url, w.in.body, nil); err != nil {
		return 0, 0, r, fmt.Errorf("upload: %w", err)
	}
	if solve, err = e.c.do("POST", url+"/solve", nil, &r); err != nil {
		return put, 0, r, fmt.Errorf("solve: %w", err)
	}
	return put, solve, r, nil
}

func (w *coldLoad) load(e *env, cl cluster, until time.Time, ph *phase) error {
	if w.algs == nil {
		w.algs = make(map[string]int)
	}
	for time.Now().Before(until) {
		ph.attempted++
		put, solve, r, err := w.iteration(e, cl[0])
		if err == nil {
			if err = r.check(w.in); err != nil {
				ph.wrong++
			}
		}
		if err != nil {
			ph.failed++
			logf("cold failure: %v", err)
			continue
		}
		ph.ops++
		ph.lat = append(ph.lat, solve)
		w.putLat = append(w.putLat, put)
		w.bytes += int64(len(w.in.body))
		if r.Hedged {
			w.hedged++
		}
		if r.Verified {
			w.verified++
		}
		w.algs[r.Algorithm]++
		if err := ph.endWindow(); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldLoad) check(*env, cluster, *phase) {}

func (w *coldLoad) report(e *env, ph *phase) {
	n := len(ph.lat)
	named("cold_"+w.in.name+"_p50_ms", ms(ph.lat.median()), "ms", n)
	named("register_mb_per_s", float64(w.bytes)/(1<<20)/w.putLat.sum().Seconds(), "MB/s", len(w.putLat))
	logf("cold %s: %d solves, %d hedged, %d verified, winners %v", w.in.name, n, w.hedged, w.verified, w.algs)
}

// --- quorum stream writes ---

// mixedPerChurn is how many mixed batches the stream client sends between
// two churn steps; a churn step is the delete of the lightest bridge and,
// in the next batch, its re-insert. At this ratio the churn steps take
// 5-7% of the timed phase's wall time and 6-8% of the servers' CPU time on
// the 2-CPU reference host (every run prints both shares), so the quorum
// write path of the mixed batches decides ops_per_s and cpu_ms_per_op,
// while a 45 s run still holds about 40 churn deletes.
const mixedPerChurn = 256

// streamFollowers is the follower count: with the primary, a quorum of 2
// out of 3 copies acknowledges a write.
const streamFollowers = 2

type streamLoad struct {
	mixed    *liveSet
	churn    *churnInput
	batch    map[string]uint64 // last batch ID sent per stream
	churnLat samples           // delete batches
	// Wall and server CPU time of the churn steps, pooled over the
	// deployments like the phase's own totals.
	churnWall time.Duration
	churnCPU  time.Duration
}

// updateReply is the subset of stream.ApplyResult the benchmark checks.
type updateReply struct {
	BatchID    uint64 `json:"batch_id"`
	Duplicate  bool   `json:"duplicate"`
	Recomputes int    `json:"recomputes"`
}

func (w *streamLoad) setup(e *env, unavailable *int) (cluster, error) {
	dir, err := os.MkdirTemp(e.work, "stream-")
	if err != nil {
		return nil, err
	}
	var cl cluster
	fail := func(err error) (cluster, error) {
		cl.stop()
		return nil, err
	}
	var bases []string
	for i := range streamFollowers {
		s, err := startServer(e.bin, []string{"-stream-dir", filepath.Join(dir, fmt.Sprintf("follower%d", i+1)), "-replica-role", "follower"})
		if err != nil {
			return fail(err)
		}
		cl = append(cl, s)
		bases = append(bases, s.base)
	}
	p, err := startServer(e.bin, []string{"-stream-dir", filepath.Join(dir, "primary"), "-replica-role", "primary",
		"-replica-followers", strings.Join(bases, ","), "-replica-quorum", "quorum"})
	if err != nil {
		return fail(err)
	}
	cl = append(cl, p)
	for _, s := range cl {
		if err := e.c.waitHealthy(s, unavailable); err != nil {
			return fail(err)
		}
	}
	w.mixed = newLiveSet(mixedVertices, mixedSeed(e.seed))
	w.churn = newChurnInput(churnSeed(e.seed))
	w.batch = map[string]uint64{}
	for _, st := range []*liveSet{w.mixed, w.churn.live} {
		id := w.streamID(st)
		body := fmt.Sprintf(`{"vertices":%d}`, st.n)
		if _, err := e.c.do("PUT", p.base+"/streams/"+id, []byte(body), nil); err != nil {
			return fail(fmt.Errorf("create stream %s: %w", id, err))
		}
		if err := w.waitReplicated(e, p, id, unavailable); err != nil {
			return fail(err)
		}
	}
	preload := map[string][][]stream.Op{"mixed": w.mixed.fill(mixedTarget), "churn": insertBatches(w.churn.live.edges)}
	for _, id := range []string{"mixed", "churn"} {
		for _, ops := range preload[id] {
			_, _, fails, err := w.update(e, p, id, ops)
			*unavailable += fails
			if err != nil {
				return fail(fmt.Errorf("preload %s: %w", id, err))
			}
		}
	}
	return cl, nil
}

// streamID names the server-side stream that holds live.
func (w *streamLoad) streamID(live *liveSet) string {
	if live == w.mixed {
		return "mixed"
	}
	return "churn"
}

// waitReplicated polls the primary's stream info until every follower is
// connected and current.
func (w *streamLoad) waitReplicated(e *env, p *serverProc, id string, unavailable *int) error {
	var info struct {
		Replication struct {
			Followers []struct {
				Connected bool `json:"connected"`
				Current   bool `json:"current"`
			} `json:"followers"`
		} `json:"replication"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, err := e.c.do("GET", p.base+"/streams/"+id, nil, &info)
		if is503(err) {
			*unavailable++
		} else if err != nil {
			return err
		}
		ready := err == nil && len(info.Replication.Followers) == streamFollowers
		for _, f := range info.Replication.Followers {
			ready = ready && f.Connected && f.Current
		}
		if ready {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("stream %s: followers not current within 30s", id)
}

// update sends the stream's next batch. A 5xx reply or a transport error
// leaves it unknown whether the batch was applied, so update resends it
// under the same batch ID until it is acknowledged: the server
// deduplicates, and a batch applied before its reply was lost comes back
// as a duplicate. fails counts the replies that failed; the latency runs
// from the first send to the acknowledgement.
func (w *streamLoad) update(e *env, p *serverProc, id string, ops []stream.Op) (d time.Duration, r updateReply, fails int, err error) {
	w.batch[id]++
	b := w.batch[id]
	body, err := json.Marshal(struct {
		Batch uint64      `json:"batch"`
		Ops   []stream.Op `json:"ops"`
	}{b, ops})
	if err != nil {
		return 0, r, 0, err
	}
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	for {
		r = updateReply{}
		_, err = e.c.do("POST", p.base+"/streams/"+id+"/update", body, &r)
		if err == nil {
			if r.BatchID != b || (r.Duplicate && fails == 0) {
				err = fmt.Errorf("stream %s batch %d acknowledged as batch %d (duplicate=%v)", id, b, r.BatchID, r.Duplicate)
			}
			return time.Since(start), r, fails, err
		}
		fails++
		var he *httpError
		if (errors.As(err, &he) && he.status < 500) || time.Now().After(deadline) {
			return time.Since(start), r, fails, fmt.Errorf("stream %s batch %d: %w", id, b, err)
		}
		logf("stream %s batch %d: %v; resending", id, b, err)
		time.Sleep(10 * time.Millisecond)
	}
}

// streamWindow is the number of churn cycles (mixedPerChurn mixed batches,
// then a churn delete and its re-insert) in a window: 1024 mixed batches,
// so that every window holds one snapshot of the mixed stream at the
// server's default -snapshot-every 1024.
const streamWindow = 4

func (w *streamLoad) load(e *env, cl cluster, until time.Time, ph *phase) error {
	p := cl[len(cl)-1]
	send := func(id string, ops []stream.Op) (time.Duration, updateReply, bool) {
		d, r, fails, err := w.update(e, p, id, ops)
		ph.attempted += int64(fails)
		ph.failed += int64(fails)
		if err != nil {
			// The batch was refused outright or never acknowledged, so
			// the client's live set no longer matches the server's; the
			// end-of-run forest check reports it as wrong.
			ph.attempted++
			ph.failed++
			logf("stream failure: %v", err)
			return d, r, false
		}
		ph.attempted++
		ph.ops++
		return d, r, true
	}
	// The deadline is checked only where a window ends, so that every
	// window is whole and none is dropped.
	for cycle := 1; ; cycle++ {
		for range mixedPerChurn {
			if d, _, ok := send("mixed", w.mixed.mixedBatch(mixedOps, mixedTarget)); ok {
				ph.lat = append(ph.lat, d)
			}
		}
		// One churn step: the delete, then the re-insert.
		_, cpu0, err0 := cl.usage()
		start := time.Now()
		for range 2 {
			ops, isDelete := w.churn.step()
			d, r, ok := send("churn", ops)
			if !ok || !isDelete {
				continue
			}
			w.churnLat = append(w.churnLat, d)
			// A duplicate acknowledgement carries no apply result.
			if r.Recomputes == 0 && !r.Duplicate {
				ph.failed++
				ph.badAdversary++
			}
		}
		w.churnWall += time.Since(start)
		if _, cpu1, err := cl.usage(); err == nil && err0 == nil {
			w.churnCPU += cpu1 - cpu0
		}
		if cycle%streamWindow == 0 {
			if err := ph.endWindow(); err != nil {
				return err
			}
			// Stop where the deadline is nearer than the middle of
			// another window like the last.
			if !time.Now().Add(ph.windows[len(ph.windows)-1].elapsed / 2).Before(until) {
				return nil
			}
		}
	}
}

// check compares every server's forest of both streams with a Kruskal
// oracle over the client's own live edges.
func (w *streamLoad) check(e *env, cl cluster, ph *phase) {
	for _, live := range []*liveSet{w.mixed, w.churn.live} {
		id := w.streamID(live)
		want, err := live.oracleForest()
		if err != nil {
			logf("oracle %s: %v", id, err)
			ph.failed++
			ph.wrong++
			continue
		}
		for i, s := range cl {
			ph.attempted++
			if err := w.checkForest(e, s, id, want); err != nil {
				logf("forest check server%d: %v", i, err)
				ph.failed++
				ph.wrong++
			}
		}
	}
}

func (w *streamLoad) report(e *env, ph *phase) {
	named("ack_p50_ms", ms(ph.lat.median()), "ms", len(ph.lat))
	named("ack_p99_ms", ms(ph.lat.quantile(0.99)), "ms", len(ph.lat))
	named("churn_p50_ms", ms(w.churnLat.median()), "ms", len(w.churnLat))
	logf("churn steps (delete + re-insert): %.1f%% of the timed phase's wall time, %.1f%% of its server CPU time",
		100*w.churnWall.Seconds()/ph.elapsed.Seconds(), 100*w.churnCPU.Seconds()/ph.cpu.Seconds())
	logf("churn deletes without a recompute: %d", ph.badAdversary)
}

func (w *streamLoad) checkForest(e *env, s *serverProc, id string, want []graph.Edge) error {
	var reply struct {
		LastBatch uint64       `json:"last_batch"`
		Forest    []graph.Edge `json:"forest"`
	}
	url := fmt.Sprintf("%s/streams/%s/forest?min_batch=%d", s.base, id, w.batch[id])
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := e.c.do("GET", url, nil, &reply)
		if err == nil {
			break
		}
		if !is503(err) || time.Now().After(deadline) {
			return fmt.Errorf("%s forest: %w", id, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := canonicalEdges(reply.Forest)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s forest at batch %d: %d edges differ from the oracle's %d", id, reply.LastBatch, len(got), len(want))
	}
	return nil
}
