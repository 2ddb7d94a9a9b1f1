package par

import (
	"math"
	"sync/atomic"
)

// Packed (weight, id) keys.
//
// The paper assumes distinct edge weights and suggests breaking ties with
// endpoint identities. We realize that total order as a single uint64:
// the high 32 bits are the IEEE-754 bit pattern of the (finite, non-negative)
// float32 weight — whose unsigned integer order coincides with numeric order —
// and the low 32 bits are the canonical undirected edge id. Two distinct
// edges therefore always compare differently, and the whole key supports
// lock-free atomic minimum via compare-and-swap, which is the fine-grained
// primitive GBBS-style parallel Boruvka is built on.

// InfKey is the identity element for atomic minimum: larger than every packed
// key of a real edge.
const InfKey uint64 = math.MaxUint64

// PackKey packs a finite non-negative float32 weight and a 32-bit edge id
// into a totally ordered uint64 key. Keys order first by weight, then by id.
func PackKey(w float32, id uint32) uint64 {
	return uint64(math.Float32bits(w))<<32 | uint64(id)
}

// KeyWeight extracts only the weight of a packed key.
func KeyWeight(k uint64) float32 { return math.Float32frombits(uint32(k >> 32)) }

// KeyID extracts only the edge id of a packed key.
func KeyID(k uint64) uint32 { return uint32(k) }

// WriteMin atomically sets *addr = min(*addr, val) and reports whether val
// became the new minimum. The classic priority-update primitive: contended
// writes that lose the race do nothing, so it scales under high fan-in.
func WriteMin(addr *uint64, val uint64) bool {
	for {
		old := atomic.LoadUint64(addr)
		if val >= old {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, val) {
			return true
		}
	}
}

// FillKeys sets every element of s to k, in parallel with p workers.
func FillKeys(p int, s []uint64, k uint64) { Fill(p, s, k) }
