package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"llpmst/internal/dist"
	"llpmst/internal/fault"
	"llpmst/internal/gen"
	"llpmst/internal/graph"
)

// namedGraph pairs an experiment dataset with its display name.
type namedGraph struct {
	name string
	g    *graph.CSR
}

// distGraphs builds the distributed experiments' dataset suite: growing
// road networks plus a Kronecker graph.
func distGraphs(sc Scale) []namedGraph {
	var graphs []namedGraph
	sides := []int{8, 16, 32}
	if sc >= ScaleS {
		sides = append(sides, 64)
	}
	for _, side := range sides {
		graphs = append(graphs, namedGraph{
			fmt.Sprintf("road-%dx%d", side, side),
			gen.RoadNetwork(0, side, side, 0.2, 42),
		})
	}
	return append(graphs, namedGraph{"rmat-s8", gen.RMAT(0, 8, 8, gen.WeightUniform, 42)})
}

// DistRow is one line of the distributed-protocol cost experiment.
type DistRow struct {
	Dataset  string
	Vertices int
	Edges    int
	Stats    dist.SimStats
}

// DistributedCtx measures the GHS-style protocol's costs across growing road
// networks and a Kronecker graph: phases (should stay within log2 n),
// rounds, and total messages (the classic GHS bound is O(m + n log n)).
// Wall time is irrelevant here — the simulation is sequential — so this
// experiment is meaningful on any host. The protocol simulation polls ctx
// between message rounds (see dist.RunGHS).
func DistributedCtx(ctx context.Context, w io.Writer, sc Scale) ([]DistRow, error) {
	graphs := distGraphs(sc)
	var rows []DistRow
	var table [][]string
	for _, item := range graphs {
		ids, stats, err := dist.RunGHS(ctx, item.g)
		if err != nil {
			return nil, err
		}
		_, comps := item.g.Components()
		if len(ids) != item.g.NumVertices()-comps {
			return nil, fmt.Errorf("distributed MSF wrong size on %s", item.name)
		}
		rows = append(rows, DistRow{
			Dataset: item.name, Vertices: item.g.NumVertices(),
			Edges: item.g.NumEdges(), Stats: stats,
		})
		n := float64(item.g.NumVertices())
		m := float64(item.g.NumEdges())
		bound := m + n*math.Log2(n)
		table = append(table, []string{
			item.name,
			fmt.Sprintf("%d", item.g.NumVertices()),
			fmt.Sprintf("%d", item.g.NumEdges()),
			fmt.Sprintf("%d", stats.Phases),
			fmt.Sprintf("%.1f", math.Log2(n)),
			fmt.Sprintf("%d", stats.Rounds),
			fmt.Sprintf("%d", stats.Messages),
			fmt.Sprintf("%.2f", float64(stats.Messages)/bound),
		})
	}
	PrintTable(w, fmt.Sprintf("Distributed GHS-style protocol costs (scale=%s)", sc),
		[]string{"graph", "n", "m", "phases", "log2(n)", "rounds", "messages", "msgs/(m+n·log n)"},
		table)
	return rows, nil
}

// ChaosRow is one line of the chaos experiment: the same protocol run clean
// and under a lossy network, with the transport's recovery costs.
type ChaosRow struct {
	Dataset     string
	Vertices    int
	Edges       int
	Clean       dist.SimStats
	Faulty      dist.SimStats
	RoundFactor float64 // faulty rounds / clean rounds
}

// ChaosCtx reruns the distributed experiment's graphs over a lossy network
// (20% drop, 10% duplication, inbox reordering, seeded by seed) and reports
// what fault recovery costs: retransmissions, injected faults, and the
// round-count slowdown versus the clean run. Every faulty run is checked to
// elect exactly the clean run's forest — the reliable transport must mask
// the chaos completely.
func ChaosCtx(ctx context.Context, w io.Writer, sc Scale, seed int64) ([]ChaosRow, error) {
	graphs := distGraphs(sc)
	plan := fault.Plan{
		Seed:    seed,
		Default: fault.Probs{Drop: 0.2, Dup: 0.1, Reorder: true},
	}
	var rows []ChaosRow
	var table [][]string
	for _, item := range graphs {
		cleanIDs, clean, err := dist.RunGHS(ctx, item.g)
		if err != nil {
			return nil, err
		}
		faultyIDs, faulty, err := dist.RunGHSFaulty(ctx, item.g, plan)
		if err != nil {
			return nil, err
		}
		slices.Sort(cleanIDs)
		slices.Sort(faultyIDs)
		if !slices.Equal(cleanIDs, faultyIDs) {
			return nil, fmt.Errorf("chaos run elected a different forest on %s", item.name)
		}
		factor := float64(faulty.Rounds) / float64(max(clean.Rounds, 1))
		rows = append(rows, ChaosRow{
			Dataset: item.name, Vertices: item.g.NumVertices(), Edges: item.g.NumEdges(),
			Clean: clean, Faulty: faulty, RoundFactor: factor,
		})
		table = append(table, []string{
			item.name,
			fmt.Sprintf("%d", item.g.NumVertices()),
			fmt.Sprintf("%d", clean.Rounds),
			fmt.Sprintf("%d", faulty.Rounds),
			fmt.Sprintf("%.1fx", factor),
			fmt.Sprintf("%d", faulty.Retransmits),
			fmt.Sprintf("%d", faulty.Dropped),
			fmt.Sprintf("%d", faulty.Duplicated),
		})
	}
	PrintTable(w, fmt.Sprintf("GHS under chaos: drop=0.2 dup=0.1 reorder (seed=%d, scale=%s)", seed, sc),
		[]string{"graph", "n", "clean rounds", "chaos rounds", "slowdown", "retransmits", "dropped", "duplicated"},
		table)
	return rows, nil
}
