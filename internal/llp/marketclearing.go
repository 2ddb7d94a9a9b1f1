package llp

import (
	"llpmst/internal/matching"
)

// Market clearing prices as an LLP instance — the Demange-Gale-Sotomayor
// ascending auction, the last of the problems the paper's §III lists as
// derivable from the LLP algorithm ("Gale-Demange-Sotomayor algorithm for
// the market clearing prices").
//
// n buyers bid on n items with integer valuations value[b][i]. The lattice
// is the integer price vector ascending from zero; at prices p, buyer b
// demands the items maximizing value[b][i] - p[i] (if the best utility is
// negative the buyer demands nothing). An item is forbidden when it lies in
// the neighborhood of a constricted (Hall-violating) buyer set of the
// demand graph — prices of over-demanded items must rise — and advances by
// +1. The fixpoint is the componentwise-minimum market-clearing price
// vector, at which the demand graph has a perfect-on-buyers matching.
//
// Forbidden is computed from a maximum matching + alternating-path Hall
// violator (internal/matching). This instance's forbidden test is global —
// each evaluation sees the whole demand graph — so the sequential driver is
// the natural one; it is nevertheless a faithful Algorithm 1 instance:
// advance all forbidden indices, repeat until none.

// MarketClearing is the LLP predicate for minimum Walrasian prices.
type MarketClearing struct {
	n      int
	value  [][]int64
	prices []int64

	// Round cache: forbidden items of the current price vector. Rebuilt
	// whenever prices change.
	dirty     bool
	forbidden []bool
}

// NewMarketClearing creates the predicate for a square market (len(value)
// buyers, each with len(value) item valuations).
func NewMarketClearing(value [][]int64) *MarketClearing {
	return &MarketClearing{
		n:         len(value),
		value:     value,
		prices:    make([]int64, len(value)),
		forbidden: make([]bool, len(value)),
		dirty:     true,
	}
}

// N implements Predicate (indices are items).
func (mc *MarketClearing) N() int { return mc.n }

// demandGraph builds the bipartite demand graph at current prices.
func (mc *MarketClearing) demandGraph() matching.Bipartite {
	b := matching.Bipartite{NL: mc.n, NR: mc.n, Adj: make([][]uint32, mc.n)}
	for buyer := 0; buyer < mc.n; buyer++ {
		best := int64(-1) // empty demand if all utilities negative
		for item := 0; item < mc.n; item++ {
			if u := mc.value[buyer][item] - mc.prices[item]; u > best {
				best = u
			}
		}
		if best < 0 {
			continue
		}
		for item := 0; item < mc.n; item++ {
			if mc.value[buyer][item]-mc.prices[item] == best {
				b.Adj[buyer] = append(b.Adj[buyer], uint32(item))
			}
		}
	}
	return b
}

func (mc *MarketClearing) refresh() {
	if !mc.dirty {
		return
	}
	for i := range mc.forbidden {
		mc.forbidden[i] = false
	}
	dg := mc.demandGraph()
	matchL, matchR := matching.MaxMatching(dg)
	// Only buyers with non-empty demand need matching; a buyer priced out
	// entirely never constrains prices.
	unmatchedDemanding := false
	for buyer := 0; buyer < mc.n; buyer++ {
		if matchL[buyer] < 0 && len(dg.Adj[buyer]) > 0 {
			unmatchedDemanding = true
			break
		}
	}
	if unmatchedDemanding {
		_, items := matching.HallViolator(dg, matchL, matchR)
		for _, it := range items {
			mc.forbidden[it] = true
		}
	}
	mc.dirty = false
}

// Forbidden implements Predicate: item j is over-demanded at the current
// prices.
func (mc *MarketClearing) Forbidden(j int) bool {
	mc.refresh()
	return mc.forbidden[j]
}

// Advance implements Predicate: raise the item's price by one.
func (mc *MarketClearing) Advance(j int) {
	mc.prices[j]++
	mc.dirty = true
}

// Prices returns the current price vector.
func (mc *MarketClearing) Prices() []int64 { return mc.prices }

// Assignment returns, at clearing prices, a maximum matching of buyers to
// items (buyer -> item, -1 for priced-out buyers).
func (mc *MarketClearing) Assignment() []int32 {
	dg := mc.demandGraph()
	matchL, _ := matching.MaxMatching(dg)
	return matchL
}

// SolveMarketClearing runs the auction to its fixpoint and returns the
// minimum clearing prices and a clearing assignment.
func SolveMarketClearing(value [][]int64) ([]int64, []int32, Stats) {
	mc := NewMarketClearing(value)
	st := Sequential(nil, mc)
	return mc.Prices(), mc.Assignment(), st
}
