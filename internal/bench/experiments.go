package bench

import (
	"context"
	"fmt"
	"io"

	"llpmst/internal/graph"
	"llpmst/internal/llp"
	"llpmst/internal/mst"
)

// DefaultThreads is the thread sweep of Fig. 3 (the paper sweeps 1..32 on a
// 48-vCPU machine).
var DefaultThreads = []int{1, 2, 4, 8, 16, 32}

// TableI prints the dataset inventory, mirroring Table I with the synthetic
// stand-ins: name, paper analogue, type, vertex/edge counts and average
// degree.
func TableI(w io.Writer, sc Scale) ([]Result, error) {
	var rows [][]string
	var results []Result
	for _, d := range Datasets(sc) {
		g := cachedBuild(sc, d)
		s := g.ComputeStats()
		rows = append(rows, []string{
			d.Name, d.Analogue, d.Kind,
			fmt.Sprintf("%d", s.Vertices), fmt.Sprintf("%d", s.Edges),
			fmt.Sprintf("%.2f", s.AvgDegree),
		})
		results = append(results, Result{
			Experiment: "tableI", Dataset: d.Name,
			Edges: s.Edges, Workers: 0,
		})
	}
	PrintTable(w, fmt.Sprintf("Table I: datasets (scale=%s)", sc),
		[]string{"dataset", "paper analogue", "type", "vertices", "edges", "avg-deg"}, rows)
	return results, nil
}

// Fig2Ctx reproduces the single-threaded comparison of Fig. 2: Prim, LLP-Prim
// (1 thread) and Boruvka (1 thread) on the road and Kronecker graphs. The
// paper's shape: Prim-family ~3x faster than Boruvka; LLP-Prim(1T) ~21-27%
// faster than Prim.
// ctx cancels and observes the runs as in MeasureCtx.
func Fig2Ctx(ctx context.Context, w io.Writer, sc Scale, trials int) ([]Result, error) {
	algs := []mst.Algorithm{mst.AlgPrim, mst.AlgLLPPrim, mst.AlgBoruvka}
	var results []Result
	for _, ds := range []string{"road", "rmat"} {
		g, err := GetDataset(sc, ds)
		if err != nil {
			return nil, err
		}
		var primMs float64
		for _, alg := range algs {
			r, err := MeasureCtx(ctx, g, alg, mst.Options{Workers: 1}, trials)
			if err != nil {
				return nil, err
			}
			r.Experiment, r.Dataset, r.Workers = "fig2", ds, 1
			if alg == mst.AlgPrim {
				primMs = r.Millis
			}
			if primMs > 0 {
				r.Speedup = primMs / r.Millis
			}
			results = append(results, r)
		}
	}
	sortResults(results)
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Dataset, r.Algorithm, ms(r.Millis), fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	PrintTable(w, fmt.Sprintf("Fig. 2: single-threaded Prim vs LLP-Prim(1T) vs Boruvka (scale=%s, trials=%d)", sc, trials),
		[]string{"dataset", "algorithm", "time-ms", "vs-prim"}, rows)
	return results, nil
}

// Fig3Ctx reproduces the thread sweep of Fig. 3 on the road network: LLP-Prim,
// parallel Boruvka and LLP-Boruvka across worker counts, with per-algorithm
// speedup over its own 1-worker time. The paper's shape: LLP-Prim leads at
// low worker counts but tapers/regresses around 8; the Boruvka-based
// algorithms scale near-linearly and overtake around 8 threads, with
// LLP-Boruvka ahead of Boruvka throughout.
// ctx cancels and observes the runs as in MeasureCtx.
func Fig3Ctx(ctx context.Context, w io.Writer, sc Scale, trials int, threads []int) ([]Result, error) {
	if len(threads) == 0 {
		threads = DefaultThreads
	}
	g, err := GetDataset(sc, "road")
	if err != nil {
		return nil, err
	}
	algs := []mst.Algorithm{mst.AlgLLPPrimParallel, mst.AlgParallelBoruvka, mst.AlgLLPBoruvka}
	var results []Result
	base := map[mst.Algorithm]float64{}
	for _, alg := range algs {
		for _, p := range threads {
			r, err := MeasureCtx(ctx, g, alg, mst.Options{Workers: p}, trials)
			if err != nil {
				return nil, err
			}
			r.Experiment, r.Dataset = "fig3", "road"
			if p == threads[0] {
				base[alg] = r.Millis
			}
			if b := base[alg]; b > 0 {
				r.Speedup = b / r.Millis
			}
			results = append(results, r)
		}
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Algorithm, fmt.Sprintf("%d", r.Workers), ms(r.Millis), fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	PrintTable(w, fmt.Sprintf("Fig. 3: thread sweep on the road network (scale=%s, trials=%d)", sc, trials),
		[]string{"algorithm", "workers", "time-ms", "self-speedup"}, rows)
	ChartFig3(w, results)
	return results, nil
}

// Fig4Ctx reproduces Fig. 4: every parallel algorithm at a low and a high
// worker count, across graph morphologies. The paper's shape: LLP-Prim best
// at low counts and on denser graphs; Boruvka-family best at high counts
// with LLP-Boruvka modestly ahead.
// ctx cancels and observes the runs as in MeasureCtx.
func Fig4Ctx(ctx context.Context, w io.Writer, sc Scale, trials int, lowP, highP int) ([]Result, error) {
	if lowP <= 0 {
		lowP = 4
	}
	if highP <= 0 {
		highP = 32
	}
	algs := []mst.Algorithm{mst.AlgLLPPrimParallel, mst.AlgParallelBoruvka, mst.AlgLLPBoruvka}
	var results []Result
	for _, ds := range []string{"road", "rmat", "geo"} {
		g, err := GetDataset(sc, ds)
		if err != nil {
			return nil, err
		}
		for _, p := range []int{lowP, highP} {
			for _, alg := range algs {
				r, err := MeasureCtx(ctx, g, alg, mst.Options{Workers: p}, trials)
				if err != nil {
					return nil, err
				}
				r.Experiment, r.Dataset = "fig4", ds
				results = append(results, r)
			}
		}
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Dataset, fmt.Sprintf("%d", r.Workers), r.Algorithm, ms(r.Millis),
		})
	}
	PrintTable(w, fmt.Sprintf("Fig. 4: parallel algorithms at low/high worker counts (scale=%s, low=%d, high=%d, trials=%d)", sc, lowP, highP, trials),
		[]string{"dataset", "workers", "algorithm", "time-ms"}, rows)
	return results, nil
}

// SizeSweepCtx reproduces the §VII.C remark: graphs of the same morphology at
// different sizes show analogous behaviour. Runs the three parallel
// algorithms across the scales up to maxScale at a fixed worker count.
// ctx cancels and observes the runs as in MeasureCtx.
func SizeSweepCtx(ctx context.Context, w io.Writer, maxScale Scale, trials, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = 8
	}
	algs := []mst.Algorithm{mst.AlgLLPPrimParallel, mst.AlgParallelBoruvka, mst.AlgLLPBoruvka}
	var results []Result
	for sc := ScaleTest; sc <= maxScale; sc++ {
		for _, ds := range []string{"road", "rmat"} {
			g, err := GetDataset(sc, ds)
			if err != nil {
				return nil, err
			}
			for _, alg := range algs {
				r, err := MeasureCtx(ctx, g, alg, mst.Options{Workers: workers}, trials)
				if err != nil {
					return nil, err
				}
				r.Experiment, r.Dataset = "sizesweep", fmt.Sprintf("%s/%s", ds, sc)
				results = append(results, r)
			}
		}
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{r.Dataset, r.Algorithm, ms(r.Millis)})
	}
	PrintTable(w, fmt.Sprintf("Size sweep (§VII.C): same morphology, growing size (workers=%d, trials=%d)", workers, trials),
		[]string{"dataset/scale", "algorithm", "time-ms"}, rows)
	return results, nil
}

// AblationCtx measures the design choices DESIGN.md calls out:
//
//	(a) LLP-Prim without MWE early fixing (degenerates towards lazy Prim),
//	(b) LLP-Prim without the Q staging set (heap churn returns),
//	(c) LLP-Boruvka's pointer jumping under the three LLP drivers,
//	(d) Prim's heap choice: indexed binary vs lazy binary vs pairing.
//
// Each ablation case runs with ctx installed in its Options.
func AblationCtx(ctx context.Context, w io.Writer, sc Scale, trials, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = 8
	}
	var results []Result
	add := func(ds, label string, f func(g *graph.CSR) (*mst.Forest, error)) error {
		g, err := GetDataset(sc, ds)
		if err != nil {
			return err
		}
		best := -1.0
		var forest *mst.Forest
		for t := 0; t < trials; t++ {
			start := now()
			fo, err := f(g)
			el := since(start)
			if err != nil {
				return err
			}
			if best < 0 || el < best {
				best = el
			}
			forest = fo
		}
		if err := mst.CheckForest(g, forest); err != nil {
			return fmt.Errorf("ablation %s: %w", label, err)
		}
		results = append(results, Result{
			Experiment: "ablation", Dataset: ds, Algorithm: label,
			Workers: workers, Millis: best,
			Edges: len(forest.EdgeIDs), Weight: forest.Weight,
		})
		return nil
	}
	for _, ds := range []string{"road", "rmat"} {
		cases := []struct {
			label string
			run   func(g *graph.CSR) (*mst.Forest, error)
		}{
			{"llp-prim/full", func(g *graph.CSR) (*mst.Forest, error) {
				return mst.LLPPrim(g, mst.Options{Ctx: ctx})
			}},
			{"llp-prim/no-early-fix", func(g *graph.CSR) (*mst.Forest, error) {
				return mst.LLPPrim(g, mst.Options{NoEarlyFix: true, Ctx: ctx})
			}},
			{"llp-prim/no-staging", func(g *graph.CSR) (*mst.Forest, error) {
				return mst.LLPPrim(g, mst.Options{NoStaging: true, Ctx: ctx})
			}},
			{"llp-boruvka/jump-async", func(g *graph.CSR) (*mst.Forest, error) {
				return mst.LLPBoruvka(g, mst.Options{Workers: workers, JumpMode: llp.ModeAsync, Ctx: ctx})
			}},
			{"llp-boruvka/jump-round", func(g *graph.CSR) (*mst.Forest, error) {
				return mst.LLPBoruvka(g, mst.Options{Workers: workers, JumpMode: llp.ModeRound, Ctx: ctx})
			}},
			{"llp-boruvka/jump-sequential", func(g *graph.CSR) (*mst.Forest, error) {
				return mst.LLPBoruvka(g, mst.Options{Workers: workers, JumpMode: llp.ModeSequential, Ctx: ctx})
			}},
			{"prim/indexed-heap", func(g *graph.CSR) (*mst.Forest, error) { return mst.Prim(g), nil }},
			{"prim/lazy-heap", func(g *graph.CSR) (*mst.Forest, error) { return mst.PrimLazy(g), nil }},
			{"prim/pairing-heap", func(g *graph.CSR) (*mst.Forest, error) { return mst.PrimPairing(g), nil }},
		}
		for _, c := range cases {
			if err := add(ds, c.label, c.run); err != nil {
				return nil, err
			}
		}
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{r.Dataset, r.Algorithm, ms(r.Millis)})
	}
	PrintTable(w, fmt.Sprintf("Ablations (scale=%s, workers=%d, trials=%d)", sc, workers, trials),
		[]string{"dataset", "variant", "time-ms"}, rows)
	return results, nil
}
