package llp

import "sync/atomic"

// Pointer jumping as an LLP instance — the inner loop of LLP-Boruvka (§VI):
// given a forest of rooted trees encoded as a parent array (roots point to
// themselves), index j is forbidden while G[j] != G[G[j]], and advances by
// G[j] := G[G[j]]. At the fixpoint every vertex points directly at its
// root: the trees have become stars.
//
// State cells are accessed atomically so the Async driver's racing reads
// are well-defined; Lemma 3's invariant (G[v] stays reachable from v in the
// original forest) holds under any interleaving of these advances, which is
// why the paper can run this "in parallel and without synchronization".

// PointerJump wraps a parent array as a Predicate.
type PointerJump struct {
	parent []uint32
}

// NewPointerJump wraps parent (roots must satisfy parent[r] == r). The array
// is advanced in place.
func NewPointerJump(parent []uint32) *PointerJump {
	return &PointerJump{parent: parent}
}

// Reset points the instance at a new parent array, so one PointerJump (and
// its interface boxing) can be reused across contraction rounds instead of
// allocating a fresh instance per round (see mst.Workspace).
func (p *PointerJump) Reset(parent []uint32) { p.parent = parent }

// N implements Predicate.
func (p *PointerJump) N() int { return len(p.parent) }

// Forbidden implements Predicate: j is forbidden while its parent is not a
// root, i.e. G[j] != G[G[j]].
func (p *PointerJump) Forbidden(j int) bool {
	g := atomic.LoadUint32(&p.parent[j])
	gg := atomic.LoadUint32(&p.parent[g])
	return g != gg
}

// Advance implements Predicate: G[j] := G[G[j]].
func (p *PointerJump) Advance(j int) {
	g := atomic.LoadUint32(&p.parent[j])
	gg := atomic.LoadUint32(&p.parent[g])
	atomic.StoreUint32(&p.parent[j], gg)
}

// Parent returns the underlying array.
func (p *PointerJump) Parent() []uint32 { return p.parent }
