// Package parking implements the Parking Permit Problem of Meyerson (FOCS
// 2005) as presented in Chapter 2 of the thesis: the deterministic O(K)
// primal-dual algorithm (Algorithm 1, Theorem 2.7), the randomized
// O(log K) fractional-plus-rounding algorithm (Algorithm 2), the exact
// offline optimum (a laminar dynamic program over the nested interval
// hierarchy, plus an ILP cross-check), and both lower-bound constructions
// (the adaptive Ω(K) adversary of Theorem 2.8 and the recursive Ω(log K)
// distribution of Theorem 2.9).
//
// All online algorithms operate in the interval model (Definition 2.5):
// lease lengths are powers of two and leases start at multiples of their
// length, so each day is covered by exactly K candidate leases.
package parking

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"leasing/internal/lease"
)

// ErrNotIntervalModel is returned by constructors when the configuration's
// lengths are not all powers of two.
var ErrNotIntervalModel = errors.New("parking: configuration is not in the interval model")

// ErrTimeRegression is returned when demands arrive out of order.
var ErrTimeRegression = errors.New("parking: arrival time precedes an earlier arrival")

const tightEps = 1e-9

// Algorithm is the interface shared by the deterministic and randomized
// online algorithms; the adversary drivers and the stream adapter
// operate against it.
type Algorithm interface {
	// Arrive processes a demand (a client needing a permit) on day t.
	// Arrival days must be non-decreasing.
	Arrive(t int64) error
	// Covers reports whether the current solution covers day t.
	Covers(t int64) bool
	// TotalCost returns the cost of all leases bought so far.
	TotalCost() float64
	// Leases returns the leases bought so far.
	Leases() []lease.Lease
	// BoughtSince returns the leases bought after the first n, in buy
	// order: the tail of the append-only purchase log the stream
	// adapter reads its decisions from. Callers must not mutate it.
	BoughtSince(n int) []lease.Lease
}

// Deterministic is the primal-dual Algorithm 1: when a client arrives, its
// dual variable is raised until some candidate's dual constraint becomes
// tight, and every tight candidate is bought. It is K-competitive in the
// interval model (Theorem 2.7).
type Deterministic struct {
	cfg        *lease.Config
	store      *lease.Store
	contrib    *lease.Live[float64] // the live candidates' accumulated duals
	cands      []*float64           // contrib of the current day's candidates, by type
	dual       float64
	infeasible bool // some contribution exceeded its lease's cost
	lastT      int64
	started    bool
}

var _ Algorithm = (*Deterministic)(nil)

// NewDeterministic builds the deterministic algorithm over an
// interval-model configuration.
func NewDeterministic(cfg *lease.Config) (*Deterministic, error) {
	if !cfg.IsIntervalModel() {
		return nil, ErrNotIntervalModel
	}
	return &Deterministic{
		cfg:     cfg,
		store:   lease.NewStore(cfg),
		contrib: lease.NewLive[float64](cfg, 1),
		cands:   make([]*float64, cfg.K()),
	}, nil
}

// Arrive implements Algorithm.
func (d *Deterministic) Arrive(t int64) error {
	if d.started && t < d.lastT {
		return fmt.Errorf("%w: %d after %d", ErrTimeRegression, t, d.lastT)
	}
	d.started, d.lastT = true, t

	// The candidates are the K aligned leases covering t, one per type.
	// Slack of the least-slack candidate: the amount the client's dual
	// variable y_t can rise before a constraint becomes tight.
	slack := math.Inf(1)
	for k := range d.cands {
		c := d.contrib.At(0, k, d.cfg.AlignedStart(k, t))
		d.cands[k] = c
		slack = min(slack, d.cfg.Cost(k)-*c)
	}
	if slack > tightEps {
		d.dual += slack
		for k, c := range d.cands {
			*c += slack
			if *c > d.cfg.Cost(k)+tightEps {
				d.infeasible = true
			}
		}
	}
	// Buy every candidate whose constraint is now tight. If slack was ~0 a
	// tight candidate was already bought by an earlier client, so the day is
	// covered either way.
	for k, c := range d.cands {
		if *c >= d.cfg.Cost(k)-tightEps {
			d.store.Buy(d.cfg.AlignedLease(k, t))
		}
	}
	return nil
}

// Covers implements Algorithm.
func (d *Deterministic) Covers(t int64) bool { return d.store.Covers(t) }

// TotalCost implements Algorithm.
func (d *Deterministic) TotalCost() float64 { return d.store.TotalCost() }

// Leases implements Algorithm.
func (d *Deterministic) Leases() []lease.Lease { return d.store.Leases() }

// BoughtSince implements Algorithm.
func (d *Deterministic) BoughtSince(n int) []lease.Lease { return d.store.BoughtSince(n) }

// DualTotal returns the accumulated dual objective (the sum of all client
// dual variables); by weak duality it lower-bounds the offline optimum, and
// the analysis of Theorem 2.7 gives TotalCost <= K * DualTotal.
func (d *Deterministic) DualTotal() float64 { return d.dual }

// DualFeasible verifies no dual constraint is violated (every lease's
// accumulated contribution is at most its cost, modulo epsilon). A
// contribution only grows, so each is checked as it is raised and a
// violation is remembered. Used by tests.
func (d *Deterministic) DualFeasible() bool { return !d.infeasible }

// Randomized is Algorithm 2: a monotone fractional solution maintained by
// multiplicative updates, rounded online with a single uniform threshold
// tau. Its expected competitive ratio is O(log K).
type Randomized struct {
	cfg      *lease.Config
	store    *lease.Store
	frac     *lease.Live[float64] // the live candidates' fractions
	cands    []*float64           // frac of the current day's candidates, by type
	tau      float64
	fracCost float64
	lastT    int64
	started  bool
}

var _ Algorithm = (*Randomized)(nil)

// NewRandomized builds the randomized algorithm; rng supplies the single
// threshold draw. rng must be non-nil.
func NewRandomized(cfg *lease.Config, rng *rand.Rand) (*Randomized, error) {
	if !cfg.IsIntervalModel() {
		return nil, ErrNotIntervalModel
	}
	if rng == nil {
		return nil, errors.New("parking: nil rng")
	}
	return &Randomized{
		cfg:   cfg,
		store: lease.NewStore(cfg),
		frac:  lease.NewLive[float64](cfg, 1),
		cands: make([]*float64, cfg.K()),
		tau:   1 - rng.Float64(), // uniform in (0, 1]
	}, nil
}

// Arrive implements Algorithm.
func (r *Randomized) Arrive(t int64) error {
	if r.started && t < r.lastT {
		return fmt.Errorf("%w: %d after %d", ErrTimeRegression, t, r.lastT)
	}
	r.started, r.lastT = true, t

	// The candidates are the K aligned leases covering t, shortest first.
	k := len(r.cands)

	// Fractional phase: raise candidate fractions until they sum to >= 1.
	sum := 0.0
	for i := range r.cands {
		r.cands[i] = r.frac.At(0, i, r.cfg.AlignedStart(i, t))
		sum += *r.cands[i]
	}
	for sum < 1 {
		sum = 0
		for i, f := range r.cands {
			cost := r.cfg.Cost(i)
			nf := *f*(1+1/cost) + 1/(float64(k)*cost)
			r.fracCost += (nf - *f) * cost
			*f = nf
			sum += nf
		}
	}

	// Rounding phase: buy the unique type k* whose fraction suffix brackets
	// tau: sum_{i>k*} f_i < tau <= sum_{i>=k*} f_i. Suffixes run from the
	// longest type down, so suffix[0] = sum >= 1 >= tau guarantees existence.
	suffix := 0.0
	for i := k - 1; i >= 0; i-- {
		next := suffix + *r.cands[i]
		if suffix < r.tau && r.tau <= next {
			r.store.Buy(r.cfg.AlignedLease(i, t))
			return nil
		}
		suffix = next
	}
	// Floating-point slack can leave tau marginally above the total; the
	// shortest candidate is the conservative fallback and preserves both
	// feasibility and the expected-cost analysis (probability O(eps)).
	r.store.Buy(r.cfg.AlignedLease(0, t))
	return nil
}

// Covers implements Algorithm.
func (r *Randomized) Covers(t int64) bool { return r.store.Covers(t) }

// TotalCost implements Algorithm.
func (r *Randomized) TotalCost() float64 { return r.store.TotalCost() }

// Leases implements Algorithm.
func (r *Randomized) Leases() []lease.Lease { return r.store.Leases() }

// BoughtSince implements Algorithm.
func (r *Randomized) BoughtSince(n int) []lease.Lease { return r.store.BoughtSince(n) }

// FractionalCost returns the cost of the fractional solution, the quantity
// the first half of the analysis bounds by O(log K) * OPT.
func (r *Randomized) FractionalCost() float64 { return r.fracCost }

// Run feeds every demand day of days (which must be sorted ascending) into
// alg and returns its final cost.
func Run(alg Algorithm, days []int64) (float64, error) {
	for _, t := range days {
		if err := alg.Arrive(t); err != nil {
			return 0, err
		}
	}
	return alg.TotalCost(), nil
}

// CoversAllAfterRun verifies that alg's final solution covers every demand
// day — the feasibility invariant of both algorithms.
func CoversAllAfterRun(alg Algorithm, days []int64) bool {
	for _, t := range days {
		if !alg.Covers(t) {
			return false
		}
	}
	return true
}
