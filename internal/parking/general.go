package parking

import (
	"fmt"

	"leasing/internal/lease"
)

// GeneralAdapter applies Lemma 2.6 online: it runs an interval-model
// algorithm over the rounded configuration and mirrors every interval
// lease it buys as two consecutive leases of the original (arbitrary
// length) configuration, whose combined span covers the rounded window.
// The adapter is 2c-competitive against the rounded optimum and hence
// 4c-competitive against the general optimum when the wrapped algorithm
// is c-competitive — the full statement of the lemma, working online.
type GeneralAdapter struct {
	orig     *lease.Config
	rounded  *lease.Config
	toOrig   map[int]int // rounded type -> cheapest original type mapped to it
	inner    Algorithm
	store    *lease.Store
	mirrored int // inner purchases already mirrored
}

// NewGeneralAdapter wraps build (a constructor of an interval-model
// algorithm, e.g. NewDeterministic or a randomized closure) for use with a
// general configuration whose lengths need not be powers of two.
func NewGeneralAdapter(orig *lease.Config, build func(cfg *lease.Config) (Algorithm, error)) (*GeneralAdapter, error) {
	rounded := orig.RoundToIntervalModel()
	inner, err := build(rounded)
	if err != nil {
		return nil, fmt.Errorf("parking: build inner algorithm: %w", err)
	}
	m := orig.TypeMapToRounded(rounded)
	toOrig := make(map[int]int, len(m))
	for origK, rk := range m {
		if rk < 0 {
			continue
		}
		if cur, ok := toOrig[rk]; !ok || orig.Cost(origK) < orig.Cost(cur) {
			toOrig[rk] = origK
		}
	}
	return &GeneralAdapter{
		orig:    orig,
		rounded: rounded,
		toOrig:  toOrig,
		inner:   inner,
		store:   lease.NewStore(orig),
	}, nil
}

var _ Algorithm = (*GeneralAdapter)(nil)

// Arrive implements Algorithm: the demand is forwarded to the inner
// interval-model algorithm and its new purchases, the tail of its log,
// are expanded to pairs of original leases.
func (a *GeneralAdapter) Arrive(t int64) error {
	if err := a.inner.Arrive(t); err != nil {
		return err
	}
	for _, il := range a.inner.BoughtSince(a.mirrored) {
		a.mirrored++
		ok, exists := a.toOrig[il.K]
		if !exists {
			return fmt.Errorf("parking: rounded type %d has no original mapping", il.K)
		}
		a.store.Buy(lease.Lease{K: ok, Start: il.Start})
		a.store.Buy(lease.Lease{K: ok, Start: il.Start + a.orig.Length(ok)})
	}
	if !a.store.Covers(t) {
		return fmt.Errorf("parking: adapter left day %d uncovered", t)
	}
	return nil
}

// Covers implements Algorithm over the general-model store.
func (a *GeneralAdapter) Covers(t int64) bool { return a.store.Covers(t) }

// TotalCost implements Algorithm (cost of the general-model leases).
func (a *GeneralAdapter) TotalCost() float64 { return a.store.TotalCost() }

// Leases implements Algorithm.
func (a *GeneralAdapter) Leases() []lease.Lease { return a.store.Leases() }

// BoughtSince implements Algorithm.
func (a *GeneralAdapter) BoughtSince(n int) []lease.Lease { return a.store.BoughtSince(n) }

// RoundedConfig exposes the rounded configuration (for tests and
// diagnostics).
func (a *GeneralAdapter) RoundedConfig() *lease.Config { return a.rounded }
