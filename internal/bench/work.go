package bench

import (
	"context"
	"fmt"
	"io"

	"llpmst/internal/mst"
)

// WorkRow is one line of the machine-independent operation-count experiment.
type WorkRow struct {
	Dataset   string
	Algorithm string
	Metrics   mst.WorkMetrics
}

// WorkCtx measures operation counts instead of wall time: heap traffic and
// early fixes for the Prim family (the abstract's "reduces the number of
// heap operations required by Prim"), and rounds/synchronization-free jump
// advances for the Boruvka family. These counts are independent of the host
// (core count, clock, contention), so they reproduce the paper's mechanism
// claims even on machines unlike its 48-vCPU testbed.
// ctx cancels and observes the runs as in MeasureCtx.
func WorkCtx(ctx context.Context, w io.Writer, sc Scale) ([]WorkRow, error) {
	algs := []mst.Algorithm{
		mst.AlgPrim, mst.AlgPrimLazy, mst.AlgLLPPrim,
		mst.AlgBoruvka, mst.AlgParallelBoruvka, mst.AlgLLPBoruvka,
	}
	var rows []WorkRow
	for _, ds := range []string{"road", "rmat"} {
		g, err := GetDataset(sc, ds)
		if err != nil {
			return nil, err
		}
		for _, alg := range algs {
			var m mst.WorkMetrics
			if _, err := mst.Run(alg, g, mst.Options{Workers: 4, Metrics: &m, Ctx: ctx}); err != nil {
				return nil, err
			}
			rows = append(rows, WorkRow{Dataset: ds, Algorithm: string(alg), Metrics: m})
		}
	}
	var table [][]string
	for _, r := range rows {
		m := r.Metrics
		table = append(table, []string{
			r.Dataset, r.Algorithm,
			fmt.Sprintf("%d", m.HeapOps()),
			fmt.Sprintf("%d", m.EarlyFixes),
			fmt.Sprintf("%d", m.HeapFixes),
			fmt.Sprintf("%d", m.Rounds),
			fmt.Sprintf("%d", m.JumpAdvances),
		})
	}
	PrintTable(w, fmt.Sprintf("Work metrics: machine-independent operation counts (scale=%s)", sc),
		[]string{"dataset", "algorithm", "heap-ops", "early-fixes", "heap-fixes", "rounds", "jump-advances"},
		table)
	return rows, nil
}
