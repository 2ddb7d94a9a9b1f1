// Package mst implements the paper's contribution and its baselines: the
// minimum spanning forest algorithms LLP-Prim (Algorithm 5) and LLP-Boruvka
// (Algorithm 6), the classical Prim (Algorithm 2, indexed-heap and lazy-heap
// variants), sequential Boruvka (Algorithm 3), a GBBS-style parallel Boruvka
// baseline, a semiring (sparse-matrix) Boruvka whose per-round minimum-edge
// selection is a min-plus SpMV over the contracted graph's adjacency matrix,
// Kruskal and Filter-Kruskal, the randomized KKT algorithm, and two
// verifiers.
//
// Every algorithm produces the same unique minimum spanning forest, because
// all comparisons use the packed (weight, edge id) total order — the paper's
// "make weights unique by incorporating identities" device. The test suite
// exploits this: all algorithms are cross-checked edge-for-edge.
//
// # Choosing a backend
//
// Run and RunCtx dispatch on an Algorithm constant; Algorithms() enumerates
// the registered set. As a rule of thumb:
//
//   - AlgKruskal / AlgFilterKruskal: sequential oracles; FilterKruskal wins
//     when most edges are heavier than the forest.
//   - AlgPrim / AlgPrimLazy / AlgBoruvka: textbook baselines (Algorithms 2
//     and 3 of the paper).
//   - AlgLLPPrim, AlgLLPPrimParallel, AlgLLPPrimAsync: the paper's
//     LLP-Prim family — fixed-point advance on the vertex lattice, from
//     sequential to fully asynchronous.
//   - AlgParallelBoruvka / AlgLLPBoruvka: pointer-based parallel Boruvka
//     (GBBS-style write-min, and the paper's LLP formulation).
//   - AlgSemiringBoruvka: the sparse-matrix formulation — branch-free
//     row-blocked min reductions with no atomics in the inner loop. It
//     is kept for comparison; the resilient portfolio never picks it.
//   - AlgKKT: randomized linear-work Karger–Klein–Tarjan.
//
// # Shared machinery
//
// As the paper builds every algorithm from one LLP engine plus a
// per-problem predicate, backends keep only the code that makes them
// different. LLPBoruvka, SemiringBoruvka and KKT's contraction steps run
// one Boruvka round (contraction.round: symmetry-broken parents, LLP
// pointer jumping to stars, contraction) after a per-backend selection
// kernel — an atomic write-min push or a row-blocked min-plus SpMV pull,
// two forms of one product. LLPPrimParallel and LLPPrimAsync share one
// driver (runParPrim) and differ only in how the bag R is drained:
// barrier-synchronized frontier waves, or the work-stealing bag.
//
// Parallel algorithms draw all O(n+m) scratch from an Options.Workspace
// arena (or a pooled default), so steady-state runs allocate O(1); see
// Workspace and EstimateScratchBytes.
package mst
