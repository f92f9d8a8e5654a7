package parking

import (
	"errors"
	"fmt"

	"leasing/internal/lease"
)

// Predictive is the stochastic-demand policy the Chapter 5 outlook asks
// about: it believes demand days are i.i.d. Bernoulli(p) and, whenever an
// uncovered demand arrives, buys the aligned lease whose cost per
// *expected* served demand is lowest — the remaining window of a type-k
// lease covering day t holds 1 + p*(remaining-1) expected demands.
//
// With an accurate p it exploits the distribution (long leases under heavy
// demand, day permits under light demand); with a wrong p it loses the
// worst-case guarantee the primal-dual algorithms keep — exactly the
// consistency/robustness trade-off experiment E20 measures.
type Predictive struct {
	cfg     *lease.Config
	store   *lease.Store
	p       float64
	lastT   int64
	started bool
}

var _ Algorithm = (*Predictive)(nil)

// NewPredictive builds the policy with believed demand probability p in
// (0, 1].
func NewPredictive(cfg *lease.Config, p float64) (*Predictive, error) {
	if !cfg.IsIntervalModel() {
		return nil, ErrNotIntervalModel
	}
	if !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("parking: believed probability %v outside (0,1]", p)
	}
	return &Predictive{cfg: cfg, store: lease.NewStore(cfg), p: p}, nil
}

// Arrive implements Algorithm.
func (a *Predictive) Arrive(t int64) error {
	if a.started && t < a.lastT {
		return fmt.Errorf("%w: %d after %d", ErrTimeRegression, t, a.lastT)
	}
	a.started, a.lastT = true, t
	if a.store.Covers(t) {
		return nil
	}
	bestK := 0
	bestPrice := priceInf
	for k := 0; k < a.cfg.K(); k++ {
		start := a.cfg.AlignedStart(k, t)
		remaining := start + a.cfg.Length(k) - t // days of the lease still usable
		expected := 1 + a.p*float64(remaining-1)
		if price := a.cfg.Cost(k) / expected; price < bestPrice {
			bestPrice, bestK = price, k
		}
	}
	a.store.Buy(a.cfg.AlignedLease(bestK, t))
	return nil
}

const priceInf = 1e308

// Covers implements Algorithm.
func (a *Predictive) Covers(t int64) bool { return a.store.Covers(t) }

// TotalCost implements Algorithm.
func (a *Predictive) TotalCost() float64 { return a.store.TotalCost() }

// Leases implements Algorithm.
func (a *Predictive) Leases() []lease.Lease { return a.store.Leases() }

// BoughtSince implements Algorithm.
func (a *Predictive) BoughtSince(n int) []lease.Lease { return a.store.BoughtSince(n) }

// ErrNoDemand is returned by helpers that need at least one demand day.
var ErrNoDemand = errors.New("parking: no demand days")
