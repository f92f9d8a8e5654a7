// Package reusable is the eighth online domain: allocation of reusable
// resources under leasing. A pool holds C capacity units; each request
// arrives online with a usage duration, and a granted request occupies
// one unit exclusively for that duration before the unit returns to the
// pool. Serving a request requires the serving unit to hold a lease
// covering the grant instant, so the online policy makes two coupled
// decisions per request: admission (grant or reject) and provisioning
// (which lease type to buy when the serving unit is uncovered).
//
// The model follows the reusable-resource papers surveyed in PAPERS.md
// ("Asymptotically Optimal Competitive Ratio for Online Allocation of
// Reusable Resources", "Online Bipartite Matching with Reusable
// Resources"): capacity is not consumed by a grant, only borrowed.
// Admission here is greedy first-fit — a request is rejected only when
// every unit is busy at its arrival — which makes the accepted set and
// the per-unit grant sequences independent of the provisioning policy.
// That separation is what gives the competitive guarantee: each unit's
// grant instants form a non-decreasing demand-day sequence, each unit
// provisions with the parking-permit primal-dual rule (K-competitive
// per unit against that unit's offline optimum), and Offline computes
// exactly that baseline — the same first-fit routing with each unit's
// leases chosen by the exact laminar DP. Summed over units, the online
// provisioning cost is K-competitive against Offline.
//
// The learning-augmented variant generalizes the stochastic-demand rule
// of internal/parking/predictive.go from one resource to the pool: with
// believed demand probability p, an uncovered grant buys the lease
// minimizing cost per expected served request, shifting the
// provisioning threshold toward long leases under heavy predicted
// demand. Experiment E22 measures the consistency/robustness trade-off.
package reusable

import (
	"errors"
	"fmt"
	"math"

	"leasing/internal/lease"
	"leasing/internal/parking"
	"leasing/internal/stream"
)

// Request is one usage demand: it arrives at T and, if granted, occupies
// one capacity unit over [T, T+Dur). Durations below 1 are treated as 1.
type Request struct {
	T   int64
	Dur int64
}

// ErrTimeRegression is returned when requests arrive out of order.
var ErrTimeRegression = errors.New("reusable: arrival time precedes an earlier arrival")

// Instance couples a lease configuration with a pool capacity and a
// request stream; Offline and Verify are defined against it.
type Instance struct {
	cfg      *lease.Config
	capacity int
	requests []Request
}

// NewInstance validates and builds an instance. The configuration must
// be in the interval model (the per-unit provisioning rules require it),
// capacity must be at least 1, and requests must be sorted by arrival.
func NewInstance(cfg *lease.Config, capacity int, requests []Request) (*Instance, error) {
	if !cfg.IsIntervalModel() {
		return nil, parking.ErrNotIntervalModel
	}
	if capacity < 1 {
		return nil, fmt.Errorf("reusable: capacity %d below 1", capacity)
	}
	for i := 1; i < len(requests); i++ {
		if requests[i].T < requests[i-1].T {
			return nil, fmt.Errorf("%w: request %d at %d after %d",
				ErrTimeRegression, i, requests[i].T, requests[i-1].T)
		}
	}
	rs := make([]Request, len(requests))
	copy(rs, requests)
	return &Instance{cfg: cfg, capacity: capacity, requests: rs}, nil
}

// Config returns the instance's lease configuration.
func (in *Instance) Config() *lease.Config { return in.cfg }

// Capacity returns the pool size C.
func (in *Instance) Capacity() int { return in.capacity }

// Requests returns the demand stream (the caller must not modify it).
func (in *Instance) Requests() []Request { return in.requests }

// Events converts a request stream into Use events.
func Events(reqs []Request) []stream.Event {
	out := make([]stream.Event, len(reqs))
	for i, r := range reqs {
		out[i] = stream.Event{Time: r.T, Payload: stream.Use{Dur: r.Dur}}
	}
	return out
}

// Options select the provisioning policy.
type Options struct {
	// Prediction is the believed per-step demand probability of the
	// learning-augmented rule, in (0, 1]; zero selects the worst-case
	// primal-dual rule.
	Prediction float64
}

// poolUnit is one capacity unit: its provisioning algorithm, its busy
// horizon, and where its latest lease of each type ends.
type poolUnit struct {
	alg       parking.Algorithm
	busyUntil int64   // exclusive: the unit is free at t iff t >= busyUntil
	ends      []int64 // per type; math.MinInt64 before the first lease
}

// Online is the greedy first-fit allocator over C units. It is
// deterministic given (configuration, capacity, options).
type Online struct {
	cfg      *lease.Config
	opts     Options
	units    []poolUnit
	log      []stream.ItemLease // every unit's purchases in buy order: append-only
	total    float64
	lastT    int64
	started  bool
	accepted int
	rejected int
}

// NewOnline builds the allocator. The configuration must be in the
// interval model and capacity at least 1; a non-zero Prediction must lie
// in (0, 1].
func NewOnline(cfg *lease.Config, capacity int, opts Options) (*Online, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("reusable: capacity %d below 1", capacity)
	}
	units := make([]poolUnit, capacity)
	for i := range units {
		var (
			alg parking.Algorithm
			err error
		)
		if opts.Prediction != 0 {
			alg, err = parking.NewPredictive(cfg, opts.Prediction)
		} else {
			alg, err = parking.NewDeterministic(cfg)
		}
		if err != nil {
			return nil, err
		}
		units[i].alg = alg
		units[i].ends = make([]int64, cfg.K())
		for k := range units[i].ends {
			units[i].ends[k] = math.MinInt64
		}
	}
	return &Online{cfg: cfg, opts: opts, units: units}, nil
}

// Capacity returns the pool size C.
func (o *Online) Capacity() int { return len(o.units) }

// Accepted returns how many requests have been granted.
func (o *Online) Accepted() int { return o.accepted }

// Rejected returns how many requests have been rejected.
func (o *Online) Rejected() int { return o.rejected }

// InUse counts the units still occupied at time t.
func (o *Online) InUse(t int64) int {
	n := 0
	for i := range o.units {
		if o.units[i].busyUntil > t {
			n++
		}
	}
	return n
}

// TotalCost returns the cumulative provisioning cost.
func (o *Online) TotalCost() float64 { return o.total }

// satAdd saturates t+d at the maximum time, so a pathological duration
// occupies a unit forever instead of wrapping around.
func satAdd(t, d int64) int64 {
	if s := t + d; s >= t {
		return s
	}
	return math.MaxInt64
}

// Grant processes one request: unit is the serving unit and ktype the
// lease type it was served under (both -1 on rejection), and cost is the
// incremental provisioning cost of the step. The leases newly purchased
// for the grant are the tail of BoughtSince.
func (o *Online) Grant(t, dur int64) (unit, ktype int, cost float64, err error) {
	if o.started && t < o.lastT {
		return -1, -1, 0, fmt.Errorf("%w: %d after %d", ErrTimeRegression, t, o.lastT)
	}
	o.started, o.lastT = true, t
	dur = max(dur, 1)

	// Strict first-fit: the lowest-indexed free unit serves. Routing never
	// depends on lease state, so the per-unit grant sequences are exactly
	// the ones Offline's baseline provisions — that identity is what makes
	// the per-unit primal-dual guarantee compose into a pool-wide one.
	pick := -1
	for i := range o.units {
		if o.units[i].busyUntil <= t {
			pick = i
			break
		}
	}
	if pick < 0 {
		o.rejected++
		return -1, -1, 0, nil
	}

	u := &o.units[pick]
	n := len(u.alg.BoughtSince(0))
	if err := u.alg.Arrive(t); err != nil {
		return -1, -1, 0, err
	}
	for _, l := range u.alg.BoughtSince(n) {
		cost += o.cfg.Cost(l.K)
		o.log = append(o.log, stream.ItemLease{Item: pick, K: l.K, Start: l.Start})
		u.ends[l.K] = max(u.ends[l.K], l.Start+o.cfg.Length(l.K))
	}
	o.total += cost
	ktype = o.coveringType(u, t)
	if ktype < 0 {
		return -1, -1, 0, fmt.Errorf("reusable: unit %d uncovered at %d after provisioning", pick, t)
	}
	u.busyUntil = satAdd(t, dur)
	o.accepted++
	return pick, ktype, cost, nil
}

// coveringType returns the longest lease type under which the unit's
// purchases cover t, or -1 when uncovered. Every lease a unit buys
// covers the grant it was bought for, and grants come in time order, so
// each lease starts at or before t and covers t exactly when it ends
// after t; a type's latest lease ends last.
func (o *Online) coveringType(u *poolUnit, t int64) int {
	for k := len(u.ends) - 1; k >= 0; k-- {
		if u.ends[k] > t {
			return k
		}
	}
	return -1
}

// BoughtSince returns the leases bought after the first n, in buy order,
// as (unit, type, start) triples. The slice aliases the purchase log;
// callers must not mutate it.
func (o *Online) BoughtSince(n int) []stream.ItemLease { return o.log[n:] }

// Leases returns every lease bought so far as (unit, type, start)
// triples in canonical order.
func (o *Online) Leases() []stream.ItemLease {
	out := append([]stream.ItemLease(nil), o.log...)
	stream.SortItemLeases(out)
	return out
}

// route replays inst's requests through the first-fit admission rule
// alone and returns each unit's grant instants plus the per-request
// serving unit (-1 for rejections). Admission is provisioning-policy
// independent, so this is exactly the accepted set any Online run grants.
func route(inst *Instance) (grants [][]int64, serving []int) {
	busy := make([]int64, inst.capacity)
	grants = make([][]int64, inst.capacity)
	serving = make([]int, len(inst.requests))
	for i, r := range inst.requests {
		serving[i] = -1
		for u := 0; u < inst.capacity; u++ {
			if busy[u] > r.T {
				continue
			}
			busy[u] = satAdd(r.T, max(r.Dur, 1))
			grants[u] = append(grants[u], r.T)
			serving[i] = u
			break
		}
	}
	return grants, serving
}

// Offline is the feasibility oracle the online policy is measured
// against: the same first-fit admission, with each unit's leases chosen
// by the exact laminar DP over that unit's grant instants. It returns
// the total provisioning cost and the lease set in canonical order.
func Offline(inst *Instance) (float64, []stream.ItemLease, error) {
	grants, _ := route(inst)
	var (
		total  float64
		leases []stream.ItemLease
	)
	for u, days := range grants {
		cost, ls, err := parking.Optimal(inst.cfg, days)
		if err != nil {
			return 0, nil, err
		}
		total += cost
		for _, l := range ls {
			leases = append(leases, stream.ItemLease{Item: u, K: l.K, Start: l.Start})
		}
	}
	stream.SortItemLeases(leases)
	return total, leases, nil
}

// Verify checks a solution against the instance: one assignment per
// request in arrival order, valid serving units, exclusive occupation
// (never more than one concurrent usage per unit, hence never more than
// C units in use), every grant covered by a lease of the reported type
// on the serving unit, and rejections only when every unit was busy.
func Verify(inst *Instance, sol stream.Solution) error {
	if len(sol.Assignments) != len(inst.requests) {
		return fmt.Errorf("reusable: %d assignments for %d requests",
			len(sol.Assignments), len(inst.requests))
	}
	// Index the solution's leases per unit for coverage checks.
	unitLeases := make([][]lease.Lease, inst.capacity)
	for _, il := range sol.Leases {
		if il.Item < 0 || il.Item >= inst.capacity {
			return fmt.Errorf("reusable: lease on unit %d outside pool of %d", il.Item, inst.capacity)
		}
		if il.K < 0 || il.K >= inst.cfg.K() {
			return fmt.Errorf("reusable: lease type %d outside configuration", il.K)
		}
		unitLeases[il.Item] = append(unitLeases[il.Item], lease.Lease{K: il.K, Start: il.Start})
	}
	busy := make([]int64, inst.capacity)
	for i, r := range inst.requests {
		a := sol.Assignments[i]
		if a.Cost != 0 {
			return fmt.Errorf("reusable: request %d carries service cost %v", i, a.Cost)
		}
		if a.Item < 0 {
			// Rejection is only justified when the whole pool was busy.
			for u := 0; u < inst.capacity; u++ {
				if busy[u] <= r.T {
					return fmt.Errorf("reusable: request %d rejected while unit %d was free at %d", i, u, r.T)
				}
			}
			continue
		}
		if a.Item >= inst.capacity {
			return fmt.Errorf("reusable: request %d served by unit %d outside pool of %d", i, a.Item, inst.capacity)
		}
		if busy[a.Item] > r.T {
			return fmt.Errorf("reusable: request %d overlaps unit %d (busy until %d, arrival %d)",
				i, a.Item, busy[a.Item], r.T)
		}
		covered := false
		for _, l := range unitLeases[a.Item] {
			if l.K == a.K && inst.cfg.Covers(l, r.T) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("reusable: request %d served by unit %d without a covering type-%d lease at %d",
				i, a.Item, a.K, r.T)
		}
		busy[a.Item] = satAdd(r.T, max(r.Dur, 1))
	}
	return nil
}
