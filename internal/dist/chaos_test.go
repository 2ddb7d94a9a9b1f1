package dist

import (
	"context"
	"errors"
	"slices"
	"testing"

	"llpmst/internal/fault"
	"llpmst/internal/gen"
	"llpmst/internal/graph"
	"llpmst/internal/mst"
	"llpmst/internal/obs"
)

// chaosPlan is the acceptance-criteria schedule: 20% drop, 10% duplication,
// inbox reordering, no crashes.
func chaosPlan(seed int64) fault.Plan {
	return fault.Plan{
		Seed:    seed,
		Default: fault.Probs{Drop: 0.2, Dup: 0.1, Reorder: true},
	}
}

func requireChaosMSF(t *testing.T, g *graph.CSR, plan fault.Plan) SimStats {
	t.Helper()
	ids, stats, err := RunGHSFaulty(context.Background(), g, plan)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(ids)
	want := mst.Kruskal(g)
	if !slices.Equal(ids, want.EdgeIDs) {
		t.Fatalf("chaos MSF has %d edges, oracle %d; sets differ", len(ids), len(want.EdgeIDs))
	}
	return stats
}

// The reliable transport must mask drop/duplicate/reorder completely: every
// stress-suite graph elects exactly the canonical MSF.
func TestChaosExactMSF(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.CSR
	}{
		{"path", gen.Path(60, nil)},
		{"cycle", gen.Cycle(41, 3)},
		{"star", gen.Star(30)},
		{"complete", gen.Complete(16, 5)},
		{"road", gen.RoadNetwork(1, 12, 12, 0.3, 7)},
		{"rmat", gen.RMAT(1, 7, 8, gen.WeightUniform, 9)},
		{"rmat-ties", gen.RMAT(1, 6, 8, gen.WeightInteger, 10)},
		{"disconnected", gen.Disconnected(4, 12, 11)},
		{"caterpillar", gen.Caterpillar(10, 3, 13)},
		{"binary-tree", gen.BinaryTree(63, 15)},
	}
	var dropped, retransmits int64
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats := requireChaosMSF(t, tc.g, chaosPlan(int64(100+i)))
			dropped += stats.Dropped
			retransmits += stats.Retransmits
			if stats.Messages == 0 && tc.g.NumEdges() > 0 {
				t.Fatal("no protocol messages delivered")
			}
		})
	}
	if dropped == 0 || retransmits == 0 {
		t.Fatalf("chaos suite injected no faults (dropped=%d retransmits=%d) — injector not wired",
			dropped, retransmits)
	}
}

// Delay faults (out-of-order cross-round delivery) must also be masked.
func TestChaosDelays(t *testing.T) {
	plan := fault.Plan{
		Seed:    9,
		Default: fault.Probs{Drop: 0.1, Dup: 0.1, Delay: 0.3, MaxDelay: 5, Reorder: true},
	}
	stats := requireChaosMSF(t, gen.RMAT(1, 8, 8, gen.WeightUniform, 3), plan)
	if stats.Delayed == 0 {
		t.Fatal("no delays injected")
	}
}

// Identical seed and fault schedule must reproduce byte-identical SimStats
// and an identical forest across runs.
func TestChaosDeterminism(t *testing.T) {
	g := gen.RMAT(1, 8, 8, gen.WeightUniform, 5)
	plan := fault.Plan{
		Seed:    1234,
		Default: fault.Probs{Drop: 0.25, Dup: 0.1, Delay: 0.2, MaxDelay: 4, Reorder: true},
	}
	var firstIDs []uint32
	var firstStats SimStats
	for run := 0; run < 3; run++ {
		ids, stats, err := RunGHSFaulty(context.Background(), g, plan)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			firstIDs, firstStats = ids, stats
			if stats.Dropped == 0 || stats.Retransmits == 0 {
				t.Fatalf("plan injected nothing: %+v", stats)
			}
			continue
		}
		if stats != firstStats {
			t.Fatalf("run %d stats diverged:\n  first %+v\n  now   %+v", run, firstStats, stats)
		}
		if !slices.Equal(ids, firstIDs) {
			t.Fatalf("run %d forest diverged", run)
		}
	}
}

// A crash-restart interval is an omission fault: the protocol must wait it
// out and still elect the exact canonical MSF with no error.
func TestCrashRestartMasked(t *testing.T) {
	g := gen.RMAT(1, 7, 8, gen.WeightUniform, 11)
	plan := fault.Plan{
		Seed:    5,
		Default: fault.Probs{Drop: 0.1, Dup: 0.05},
		Crashes: []fault.Crash{
			{Node: 3, At: 4, Restart: 20},
			{Node: 17, At: 10, Restart: 30},
		},
	}
	requireChaosMSF(t, g, plan)
}

// twoComponents builds two path components: A = 0-1-2-3 (weights 1,2,3) and
// B = 4-5-6-7 (weights 4,5,6). Edge ids follow input order.
func twoComponents(t *testing.T) *graph.CSR {
	t.Helper()
	return graph.MustFromEdges(1, 8, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3},
		{U: 4, V: 5, W: 4}, {U: 5, V: 6, W: 5}, {U: 6, V: 7, W: 6},
	})
}

// A crash-stop must doom exactly the dead node's connected component:
// PartitionError lists the component's vertices precisely (split into Dead
// and Stranded), while the healthy component still elects its full MSF.
func TestCrashStopPartition(t *testing.T) {
	g := twoComponents(t)
	plan := fault.Plan{
		Seed:    3,
		Crashes: []fault.Crash{{Node: 5, At: 0}},
	}
	ids, _, err := RunGHSFaulty(context.Background(), g, plan)
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartitionError", err)
	}
	if !slices.Equal(pe.Dead, []uint32{5}) {
		t.Fatalf("Dead = %v, want [5]", pe.Dead)
	}
	if !slices.Equal(pe.Stranded, []uint32{4, 6, 7}) {
		t.Fatalf("Stranded = %v, want [4 6 7]", pe.Stranded)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, []uint32{0, 1, 2}) {
		t.Fatalf("partial forest = %v, want the healthy component's MSF [0 1 2]", ids)
	}
	if !slices.Equal(pe.Elected, ids) {
		t.Fatalf("Elected = %v, want %v", pe.Elected, ids)
	}
	if pe.Error() == "" {
		t.Fatal("empty error message")
	}
}

// A mid-run crash-stop keeps earlier elections: every returned edge must be
// in the canonical MSF (cut-property soundness), the healthy component must
// finish exactly, and Dead+Stranded must still be exactly the crashed
// component.
func TestCrashStopMidRunSound(t *testing.T) {
	g := twoComponents(t)
	plan := fault.Plan{
		Seed:    3,
		Crashes: []fault.Crash{{Node: 7, At: 2}},
	}
	ids, _, err := RunGHSFaulty(context.Background(), g, plan)
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartitionError", err)
	}
	got := append(pe.Dead[:len(pe.Dead):len(pe.Dead)], pe.Stranded...)
	slices.Sort(got)
	if !slices.Equal(got, []uint32{4, 5, 6, 7}) {
		t.Fatalf("Dead+Stranded = %v, want exactly the crashed component [4 5 6 7]", got)
	}
	oracle := mst.Kruskal(g).EdgeIDs
	slices.Sort(ids)
	for _, id := range ids {
		if !slices.Contains(oracle, id) {
			t.Fatalf("elected edge %d is not in the canonical MSF", id)
		}
	}
	for _, id := range []uint32{0, 1, 2} {
		if !slices.Contains(ids, id) {
			t.Fatalf("healthy component incomplete: missing edge %d in %v", id, ids)
		}
	}
}

// A schedule that never delivers (drop probability 1) must be detected as a
// stall, not loop forever.
func TestChaosStallDetected(t *testing.T) {
	g := graph.MustFromEdges(1, 2, []graph.Edge{{U: 0, V: 1, W: 1}})
	plan := fault.Plan{Seed: 1, Default: fault.Probs{Drop: 1}}
	_, _, err := RunGHSFaulty(context.Background(), g, plan)
	if err == nil {
		t.Fatal("expected a stall error")
	}
}

// Cancellation must still work under chaos and take precedence over fault
// reporting.
func TestChaosCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.RMAT(1, 7, 8, gen.WeightUniform, 2)
	ids, _, err := RunGHSFaulty(ctx, g, chaosPlan(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ids) != 0 {
		t.Fatalf("pre-cancelled run elected %d edges", len(ids))
	}
}

// RunGHSFaulty must report the fault counters through the observability
// layer, matching SimStats.
func TestChaosObsCounters(t *testing.T) {
	rec := obs.NewFlightRecorder(0, 0)
	ctx := obs.NewContext(context.Background(), rec)
	g := gen.RMAT(1, 7, 8, gen.WeightUniform, 4)
	_, stats, err := RunGHSFaulty(ctx, g, chaosPlan(8))
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		ctr  obs.Counter
		want int64
	}{
		{obs.CtrGHSRetransmits, stats.Retransmits},
		{obs.CtrFaultDropped, stats.Dropped},
		{obs.CtrFaultDuplicated, stats.Duplicated},
		{obs.CtrFaultDelayed, stats.Delayed},
	}
	for _, c := range checks {
		if got := rec.Counter(c.ctr); got != c.want {
			t.Fatalf("%s counter = %d, want %d", c.ctr, got, c.want)
		}
	}
	if stats.Retransmits == 0 || stats.Dropped == 0 {
		t.Fatalf("chaos plan injected nothing: %+v", stats)
	}
}
