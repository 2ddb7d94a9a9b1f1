package mst

import (
	"runtime"
	"testing"

	"llpmst/internal/graph"
)

// FuzzDifferentialMSF decodes arbitrary bytes into a small weighted graph
// and differential-checks the backends built on the shared Boruvka
// contraction round (LLP-Boruvka, the semiring Boruvka, KKT) and on the
// shared parallel LLP-Prim driver (both drains) against the Kruskal oracle
// at worker counts {1, 2, GOMAXPROCS}. The decoder is
// deliberately permissive (endpoints wrap modulo n, weights come from a
// small integer range so ties are dense), so the fuzzer explores tie-heavy,
// multi-edge, self-loop-adjacent shapes that generators rarely emit.
//
// Run with `go test -run xxx -fuzz=FuzzDifferentialMSF ./internal/mst`; the
// seed corpus below doubles as a regression suite under plain `go test`.
func FuzzDifferentialMSF(f *testing.F) {
	f.Add([]byte{4, 0, 1, 3, 1, 2, 3, 2, 3, 3, 0, 2, 7})
	f.Add([]byte{2, 0, 1, 0, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{8, 0, 7, 1, 1, 6, 1, 2, 5, 1, 3, 4, 1})
	f.Add([]byte{1})
	f.Add([]byte{16, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 1<<12 {
			return
		}
		n := int(in[0]%63) + 1
		in = in[1:]
		edges := make([]graph.Edge, 0, len(in)/3)
		for len(in) >= 3 {
			u := uint32(in[0]) % uint32(n)
			v := uint32(in[1]) % uint32(n)
			w := float32(in[2] % 16)
			in = in[3:]
			edges = append(edges, graph.Edge{U: u, V: v, W: w})
		}
		g, err := graph.FromEdges(1, n, edges)
		if err != nil {
			return
		}
		oracle := Kruskal(g)
		for _, p := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			for _, alg := range []Algorithm{AlgSemiringBoruvka, AlgLLPBoruvka, AlgLLPPrimParallel, AlgLLPPrimAsync, AlgKKT} {
				forest, err := Run(alg, g, Options{Workers: p})
				if err != nil {
					t.Fatalf("%s p=%d: %v", alg, p, err)
				}
				if !forest.Equal(oracle) {
					t.Fatalf("%s p=%d differs from kruskal on n=%d m=%d: %s vs %s",
						alg, p, g.NumVertices(), g.NumEdges(), forest, oracle)
				}
			}
		}
	})
}
