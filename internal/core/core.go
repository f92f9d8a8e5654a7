// Package core implements the leasing framework of Section 2.3 of the
// thesis: the generic transformation of an online infrastructure problem
// (demands j arriving over time, covered by buying infrastructure elements
// i) into its leasing variant, where buying is replaced by leasing an
// element i at time t with one of K lease types — the triples (i, k, t) the
// thesis calls the infrastructure leasing set.
//
// The concrete problems (set multicover leasing, facility leasing, leasing
// with deadlines) instantiate this framework; package core supplies the
// pieces they share: the item-lease triple, a purchase store with per-item
// per-type costs, demand streams, and competitive-ratio bookkeeping.
package core

import (
	"fmt"
	"sort"

	"leasing/internal/lease"
)

// ItemLease is the triple (i, k, t) of the infrastructure leasing set I̅:
// infrastructure element Item leased with type K starting at time Start.
type ItemLease struct {
	Item  int
	K     int
	Start int64
}

// Lease returns the timeline part (k, start) of the triple.
func (il ItemLease) Lease() lease.Lease { return lease.Lease{K: il.K, Start: il.Start} }

// ItemStore records purchased item leases with per-item, per-type costs
// (c_ik in the thesis). Construct with NewItemStore.
type ItemStore struct {
	cfg     *lease.Config
	costs   [][]float64
	journal []ItemLease    // purchases in buy order, append-only
	starts  []lease.Starts // item*K + type
	total   float64
}

// NewItemStore creates an empty store. costs[i][k] is the cost of leasing
// item i with type k; it must be rectangular with one row per item and one
// column per lease type.
func NewItemStore(cfg *lease.Config, costs [][]float64) (*ItemStore, error) {
	for i, row := range costs {
		if len(row) != cfg.K() {
			return nil, fmt.Errorf("core: cost row %d has %d entries, want %d", i, len(row), cfg.K())
		}
		for k, c := range row {
			if !(c > 0) {
				return nil, fmt.Errorf("core: cost[%d][%d] = %v, want > 0", i, k, c)
			}
		}
	}
	return &ItemStore{cfg: cfg, costs: costs, starts: make([]lease.Starts, len(costs)*cfg.K())}, nil
}

// Cost returns c_ik for item i and lease type k.
func (s *ItemStore) Cost(item, k int) float64 { return s.costs[item][k] }

// Config returns the lease configuration.
func (s *ItemStore) Config() *lease.Config { return s.cfg }

// NumItems returns the number of items the store has costs for.
func (s *ItemStore) NumItems() int { return len(s.costs) }

// Buy purchases the triple if new and accounts its cost c_ik. It reports
// whether the triple was newly bought and errors on out-of-range indices.
func (s *ItemStore) Buy(il ItemLease) (bool, error) {
	if il.Item < 0 || il.Item >= len(s.costs) {
		return false, fmt.Errorf("core: item %d out of range [0,%d)", il.Item, len(s.costs))
	}
	if il.K < 0 || il.K >= s.cfg.K() {
		return false, fmt.Errorf("core: lease type %d out of range [0,%d)", il.K, s.cfg.K())
	}
	if !s.starts[il.Item*s.cfg.K()+il.K].Insert(il.Start) {
		return false, nil
	}
	s.journal = append(s.journal, il)
	s.total += s.costs[il.Item][il.K]
	return true, nil
}

// Has reports whether the exact triple is bought.
func (s *ItemStore) Has(il ItemLease) bool {
	if il.Item < 0 || il.Item >= len(s.costs) || il.K < 0 || il.K >= s.cfg.K() {
		return false
	}
	return s.starts[il.Item*s.cfg.K()+il.K].Has(il.Start)
}

// ItemActive reports whether item i has any lease whose window covers t.
func (s *ItemStore) ItemActive(item int, t int64) bool {
	if item < 0 || item >= len(s.costs) {
		return false
	}
	for k := range s.cfg.K() {
		if s.starts[item*s.cfg.K()+k].Covers(t, s.cfg.Length(k)) {
			return true
		}
	}
	return false
}

// ActiveItems returns the items with at least one lease covering t, in
// ascending item order.
func (s *ItemStore) ActiveItems(t int64) []int {
	var out []int
	for item := range s.costs {
		if s.ItemActive(item, t) {
			out = append(out, item)
		}
	}
	return out
}

// TotalCost returns the accumulated leasing cost.
func (s *ItemStore) TotalCost() float64 { return s.total }

// BoughtSince returns the triples bought after the first n, in buy
// order. The slice aliases the store's journal; callers must not mutate
// it.
func (s *ItemStore) BoughtSince(n int) []ItemLease { return s.journal[n:] }

// Leases returns all bought triples sorted by (item, type, start).
func (s *ItemStore) Leases() []ItemLease {
	out := append([]ItemLease{}, s.journal...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Item != out[b].Item {
			return out[a].Item < out[b].Item
		}
		if out[a].K != out[b].K {
			return out[a].K < out[b].K
		}
		return out[a].Start < out[b].Start
	})
	return out
}

// CostReporter is implemented by every online algorithm in this repository.
type CostReporter interface {
	// TotalCost returns the cost accumulated so far.
	TotalCost() float64
}

// Ratio returns online/opt, the empirical competitive ratio of one run. A
// non-positive opt yields an error: every experiment instance in this
// repository has positive optimum.
func Ratio(online, opt float64) (float64, error) {
	if opt <= 0 {
		return 0, fmt.Errorf("core: non-positive optimum %v", opt)
	}
	return online / opt, nil
}
