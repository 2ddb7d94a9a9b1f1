// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§VII): the dataset registry standing in
// for Table I, the single- and multi-threaded comparisons of Figs. 2-4, the
// same-morphology size sweep described in §VII.C, and the ablation studies
// for the design choices DESIGN.md calls out.
//
// Each experiment returns structured []Result rows and renders the same
// rows as an aligned text table, so the CLI, the tests, and go test -bench
// all share one code path.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
)

// Scale selects dataset sizes. The paper runs 18-24M vertex graphs on a
// 48-vCPU machine; the default scales here are sized for a developer box,
// with ScaleL approaching paper-like behaviour on a large host.
type Scale int

const (
	// ScaleTest is for unit tests: ~1k vertices.
	ScaleTest Scale = iota
	// ScaleS is the default benchmark scale: ~65k-vertex graphs.
	ScaleS
	// ScaleM is ~260k vertices.
	ScaleM
	// ScaleL is ~1M vertices.
	ScaleL
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "test":
		return ScaleTest, nil
	case "s", "small":
		return ScaleS, nil
	case "m", "medium":
		return ScaleM, nil
	case "l", "large":
		return ScaleL, nil
	}
	return 0, fmt.Errorf("bench: unknown scale %q (want test|s|m|l)", s)
}

func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleS:
		return "s"
	case ScaleM:
		return "m"
	case ScaleL:
		return "l"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// Dataset is a named benchmark graph with its generator.
type Dataset struct {
	// Name identifies the dataset in reports ("road", "rmat", ...).
	Name string
	// Kind is the morphology label Table I uses ("road", "scalefree", ...).
	Kind string
	// Analogue names the paper dataset this stands in for.
	Analogue string
	// Build generates the graph with p workers.
	Build func(p int) *graph.CSR
}

// Datasets returns the registry for a scale. The first two entries are the
// Table I stand-ins (road network, Graph500 Kronecker); the rest are the
// extra morphologies used by Fig. 4 and the size sweep.
func Datasets(sc Scale) []Dataset {
	type dims struct {
		roadSide  int
		rmatScale int
		geoN      int
		erN, erM  int
	}
	var d dims
	switch sc {
	case ScaleTest:
		d = dims{roadSide: 32, rmatScale: 10, geoN: 1 << 10, erN: 1 << 10, erM: 1 << 13}
	case ScaleS:
		d = dims{roadSide: 256, rmatScale: 14, geoN: 1 << 14, erN: 1 << 14, erM: 1 << 17}
	case ScaleM:
		d = dims{roadSide: 512, rmatScale: 16, geoN: 1 << 16, erN: 1 << 16, erM: 1 << 19}
	default: // ScaleL
		d = dims{roadSide: 1024, rmatScale: 18, geoN: 1 << 18, erN: 1 << 18, erM: 1 << 21}
	}
	return []Dataset{
		{
			Name: "road", Kind: "road", Analogue: "USA-road-d.USA (23.9M v)",
			Build: func(p int) *graph.CSR {
				return gen.RoadNetwork(p, d.roadSide, d.roadSide, 0.2, 42)
			},
		},
		{
			Name: "rmat", Kind: "scalefree", Analogue: "graph500-s25-ef16 (18M v)",
			Build: func(p int) *graph.CSR {
				return gen.RMAT(p, d.rmatScale, 16, gen.WeightUniform, 42)
			},
		},
		{
			Name: "geo", Kind: "geometric", Analogue: "(denser morphology, §VII.C)",
			Build: func(p int) *graph.CSR {
				return gen.Geometric(p, d.geoN, 2*gen.ConnectivityRadius(d.geoN), 42)
			},
		},
		{
			Name: "er", Kind: "uniform", Analogue: "(uniform-degree morphology)",
			Build: func(p int) *graph.CSR {
				return gen.ErdosRenyi(p, d.erN, d.erM, gen.WeightUniform, 42)
			},
		},
	}
}

// GetDataset builds (or returns the cached) dataset by name at a scale.
func GetDataset(sc Scale, name string) (*graph.CSR, error) {
	for _, d := range Datasets(sc) {
		if d.Name == name {
			return cachedBuild(sc, d), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", name)
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*graph.CSR{}
)

func cachedBuild(sc Scale, d Dataset) *graph.CSR {
	key := fmt.Sprintf("%s/%s", sc, d.Name)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[key]; ok {
		return g
	}
	g := d.Build(0)
	cache[key] = g
	return g
}

// Result is one measured cell of a table or figure. The json tags define the
// schema of the BENCH_<experiment>.json trajectory files (see
// WriteJSONReports); renaming a tag is a schema change for every committed
// snapshot.
type Result struct {
	Experiment  string  `json:"experiment"`
	Dataset     string  `json:"dataset"`
	Algorithm   string  `json:"algorithm"`
	Workers     int     `json:"workers"`
	Millis      float64 `json:"best_ms"`       // best-of-trials wall time
	MedianMs    float64 `json:"median_ms"`     // median trial
	StddevMs    float64 `json:"stddev_ms"`     // sample standard deviation across trials
	Speedup     float64 `json:"speedup"`       // vs the row's declared baseline (0 if n/a)
	Edges       int     `json:"edges"`         // forest edges, as a sanity check
	Weight      float64 `json:"weight"`        // forest weight, as a sanity check
	AllocsPerOp int64   `json:"allocs_per_op"` // min-of-trials heap allocations per run
	BytesPerOp  int64   `json:"bytes_per_op"`  // min-of-trials heap bytes per run
}

// MeasureCtx runs the algorithm `trials` times and returns the best wall time,
// verifying the structural validity of the produced forest once. ctx is
// installed into the run's Options (cancelling every trial cooperatively)
// and any collector it carries observes each trial's phases. A cancelled trial aborts the whole
// measurement with its error.
func MeasureCtx(ctx context.Context, g *graph.CSR, alg mst.Algorithm, opts mst.Options, trials int) (Result, error) {
	if trials < 1 {
		trials = 1
	}
	opts.Ctx = ctx
	var sample Sample
	var forest *mst.Forest
	var minAllocs, minBytes int64
	for t := 0; t < trials; t++ {
		// Mallocs/TotalAlloc deltas around the run give allocs/op and
		// bytes/op; the minimum across trials is the steady state (the first
		// trial pays any workspace growth). ReadMemStats sits outside the
		// timed region.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		f, err := mst.Run(alg, g, opts)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return Result{}, err
		}
		sample.Add(elapsed)
		forest = f
		allocs := int64(after.Mallocs - before.Mallocs)
		bytes := int64(after.TotalAlloc - before.TotalAlloc)
		if t == 0 || allocs < minAllocs {
			minAllocs = allocs
		}
		if t == 0 || bytes < minBytes {
			minBytes = bytes
		}
	}
	if err := mst.CheckForest(g, forest); err != nil {
		return Result{}, fmt.Errorf("bench: %s produced an invalid forest: %w", alg, err)
	}
	return Result{
		Algorithm:   string(alg),
		Workers:     opts.Workers,
		Millis:      sample.Min(),
		MedianMs:    sample.Median(),
		StddevMs:    sample.Stddev(),
		Edges:       len(forest.EdgeIDs),
		Weight:      forest.Weight,
		AllocsPerOp: minAllocs,
		BytesPerOp:  minBytes,
	}, nil
}

// PrintTable renders rows as an aligned text table.
func PrintTable(w io.Writer, title string, headers []string, rows [][]string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// sortResults orders rows for stable presentation.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Dataset != b.Dataset {
			return a.Dataset < b.Dataset
		}
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		return a.Workers < b.Workers
	})
}

func ms(f float64) string { return fmt.Sprintf("%.2f", f) }

func now() time.Time { return time.Now() }

func since(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
