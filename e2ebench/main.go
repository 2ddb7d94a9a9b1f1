// Command e2ebench is the repository's end-to-end serving benchmark. It
// builds cmd/mstserve, starts it on loopback (one process, or a primary
// plus two followers), drives one seeded workload over real HTTP from this
// process, checks every answer against a Kruskal oracle, and prints the
// end-to-end metrics. With -trace 1 it instead calls the layers below the
// server in-process on the same inputs, records a span around each call,
// writes the spans to a file and prints per-layer metrics.
//
// Run it from the root of a checkout through run.sh:
//
//	bash e2ebench/run.sh --workload cold-dense --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero on any
// wrong answer, on a churn delete that did not recompute, and on any error
// that prevents a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	var (
		root     = flag.String("root", "..", "root of the llpmst checkout")
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 = traced in-process run printing per-layer metrics")
	)
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	res, err := run(*root, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// logf prints a human-readable line ahead of the result line.
func logf(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// named prints a workload-specific metric with its sample count.
func named(name string, v float64, unit string, n int) {
	logf("%-24s %12.4f %-6s n=%d", name, v, unit, n)
}

// counters prints a scraped counter family on one line.
func counters(label string, m map[string]float64) {
	keys := sortedKeys(m)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, m[k])
	}
	logf("%s: %s", label, strings.Join(parts, " "))
}

func run(root, workload string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	logf("record nproc=%d GOMAXPROCS=%d go=%s seed=%d workload=%s seconds=%g trace=%v",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, workload, seconds.Seconds(), traced)
	bin, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{root: root, bin: bin, seed: seed, seconds: seconds, work: work, c: newClient()}
	d, in, err := newDeployment(workload, seed)
	if err != nil {
		return nil, err
	}
	logf("input %s: vertices=%d edges=%d bytes=%d", in.name, in.g.NumVertices(), in.g.NumEdges(), len(in.body))
	if workload == "stream" {
		logf("input mixed: vertices=%d live_edges~%d ops_per_batch=%d; a churn step (delete + re-insert) every %d mixed batches",
			mixedVertices, mixedTarget, mixedOps, mixedPerChurn)
	}
	if traced {
		return runTraced(e, workload, d, in)
	}
	busy0, steal0, err0 := hostCPU()
	ph, err := runPhase(e, d, seconds, setupRepeats)
	if err != nil {
		return nil, err
	}
	p50, opsPerSec, cpuPerOp, err := ph.quiet()
	if err != nil {
		return nil, err
	}
	if busy1, steal1, err := hostCPU(); err == nil && err0 == nil {
		logf("host steal: %.1f%% of non-idle CPU time during the run", 100*float64(steal1-steal0)/float64(busy1-busy0))
	}
	logf("attempted=%d succeeded=%d failed=%d wrong=%d setup_unavailable=%d",
		ph.attempted, ph.attempted-ph.failed, ph.failed, ph.wrong, ph.unavailable)
	return &result{
		Correct:   ph.wrong == 0 && ph.badAdversary == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":       {ph.setups.median().Seconds(), "s"},
			"peak_rss_mb":   {quantile(ph.peakMB, 0.5), "MB"},
			"p50_ms":        {ms(p50), "ms"},
			"ops_per_s":     {opsPerSec, "1/s"},
			"cpu_ms_per_op": {cpuPerOp, "ms"},
		},
	}, nil
}

// newDeployment generates the workload's inputs from the seed. in is the
// graph the workload's solves (or, for stream, its recomputes) work on.
func newDeployment(workload string, seed int64) (deployment, *graphInput, error) {
	switch workload {
	case "cold-dense":
		in, err := denseGraph(seed)
		if err != nil {
			return nil, nil, err
		}
		pad, err := padGraph(seed)
		if err != nil {
			return nil, nil, err
		}
		return &coldLoad{in: in, pad: pad}, in, nil
	case "stream":
		in, err := newChurnInput(churnSeed(seed)).graph()
		return &streamLoad{}, in, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q", workload)
}
