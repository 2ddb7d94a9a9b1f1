package bench

import (
	"context"
	"fmt"
	"io"

	"llpmst/internal/mst"
	"llpmst/internal/obs"
)

// ConvergenceCtx reproduces the paper's convergence-dynamics view: one
// contraction-algorithm run per dataset with a flight recorder attached,
// printed as a per-round table (live edges entering the round, pointer-jump
// sweeps and advances spent flattening it). This is the data behind the
// claim that LLP-Boruvka's rounds shrink the edge set geometrically while
// each round needs only a handful of jump sweeps. Cancelling ctx stops
// between runs; a collector carried on ctx still sees every run, tee'd with
// the per-run recorder.
func ConvergenceCtx(ctx context.Context, w io.Writer, sc Scale, workers int) ([]Result, error) {
	algs := []mst.Algorithm{mst.AlgParallelBoruvka, mst.AlgLLPBoruvka}
	var results []Result
	var rows [][]string
	for _, ds := range []string{"road", "rmat"} {
		g, err := GetDataset(sc, ds)
		if err != nil {
			return nil, err
		}
		for _, alg := range algs {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			rec := obs.NewFlightRecorder(workers, 1<<16)
			// Options.Observer would shadow a ctx-carried collector (that
			// precedence is deliberate elsewhere); here both should see the
			// run — the global -trace-out/-round-csv recorders must not go
			// blind because convergence attaches its own.
			opts := mst.Options{
				Workers:  workers,
				Observer: obs.Tee(obs.FromContext(ctx), rec),
			}
			if _, err := mst.RunCtx(ctx, alg, g, opts); err != nil {
				return results, err
			}
			for _, rs := range rec.RoundSeries() {
				live, _ := rs.Gauge(obs.GaugeLiveEdges)
				rows = append(rows, []string{
					ds, string(alg), fmt.Sprintf("%d", rs.Round),
					fmt.Sprintf("%d", live),
					fmt.Sprintf("%d", rs.Counter(obs.CtrJumpRounds)),
					fmt.Sprintf("%d", rs.Counter(obs.CtrJumpAdvances)),
					fmt.Sprintf("%.3f", float64(rs.End-rs.Start)/1e6),
				})
			}
			results = append(results, Result{
				Experiment: "conv", Dataset: ds, Algorithm: string(alg),
				Workers: workers, Edges: g.NumEdges(),
			})
		}
	}
	PrintTable(w, fmt.Sprintf("Convergence: per-round live edges and pointer-jump work (scale=%s, workers=%d)", sc, workers),
		[]string{"dataset", "algorithm", "round", "live-edges", "jump-sweeps", "jump-advances", "round-ms"}, rows)
	return results, nil
}
