// Package steiner implements SteinerTreeLeasing, the companion problem
// Meyerson introduced alongside the parking permit problem (thesis
// Section 5.1): pairs of communicating nodes announce themselves over
// time, and edges of a network must be leased so every announced pair is
// connected by active edges at its announcement step. Leasing edge e with
// type k costs weight(e) * typeCost(k) and keeps e active for l_k steps.
//
// The online algorithm composes the repository's substrates: routing uses
// shortest paths where active edges are free and inactive edges charge
// their marginal leasing price, and each edge manages its own lease
// purchases with the deterministic parking-permit primal-dual of
// Chapter 2 (the edge's demand days are the steps routes cross it). The
// offline baseline builds, with hindsight, a static routing tree and then
// buys each used edge's leases exactly optimally via the laminar DP.
package steiner

import (
	"errors"
	"fmt"

	"leasing/internal/core"
	"leasing/internal/graph"
	"leasing/internal/lease"
	"leasing/internal/parking"
)

// Request is one communication demand: terminals S and T must be
// connected by active edges at step Time.
type Request struct {
	Time int64
	S, T int
}

// Instance is a Steiner-tree-leasing input. Edge lease prices are
// weight(e) * Cfg.Cost(k), so the configuration's costs act as per-type
// multipliers.
type Instance struct {
	G        *graph.Graph
	Cfg      *lease.Config
	Requests []Request
}

// NewInstance validates the input: interval-model configuration, valid
// terminals, non-decreasing request times.
func NewInstance(g *graph.Graph, cfg *lease.Config, reqs []Request) (*Instance, error) {
	if !cfg.IsIntervalModel() {
		return nil, errors.New("steiner: configuration is not in the interval model")
	}
	var lastT int64
	for i, r := range reqs {
		if r.S < 0 || r.S >= g.N() || r.T < 0 || r.T >= g.N() {
			return nil, fmt.Errorf("steiner: request %d terminals (%d,%d) outside [0,%d)", i, r.S, r.T, g.N())
		}
		if r.S == r.T {
			return nil, fmt.Errorf("steiner: request %d has equal terminals", i)
		}
		if i > 0 && r.Time < lastT {
			return nil, fmt.Errorf("steiner: request %d out of order", i)
		}
		lastT = r.Time
	}
	return &Instance{G: g, Cfg: cfg, Requests: reqs}, nil
}

// edgeConfig scales the lease configuration by an edge's weight.
func edgeConfig(cfg *lease.Config, weight float64) *lease.Config {
	types := cfg.Types()
	for i := range types {
		types[i].Cost *= weight
	}
	return lease.MustConfig(types...)
}

// Online is the composed online algorithm: per-edge parking-permit
// instances plus marginal-price shortest-path routing.
type Online struct {
	inst    *Instance
	perEdge []*parking.Deterministic
	log     []core.ItemLease // every edge's purchases in buy order: append-only
	total   float64
	lastT   int64
	started bool
}

// NewOnline builds the algorithm.
func NewOnline(inst *Instance) (*Online, error) {
	perEdge := make([]*parking.Deterministic, inst.G.M())
	for e := range perEdge {
		alg, err := parking.NewDeterministic(edgeConfig(inst.Cfg, inst.G.Edge(e).Weight))
		if err != nil {
			return nil, err
		}
		perEdge[e] = alg
	}
	return &Online{inst: inst, perEdge: perEdge}, nil
}

// Serve processes one request: route S-T over the cheapest mix of active
// and to-be-leased edges, then feed the chosen inactive edges' parking
// permits a demand at this step.
func (o *Online) Serve(r Request) error {
	if o.started && r.Time < o.lastT {
		return fmt.Errorf("steiner: request at %d precedes %d", r.Time, o.lastT)
	}
	o.started, o.lastT = true, r.Time

	// An inactive edge charges the cheapest lease it could buy to serve
	// this step.
	best := o.inst.Cfg.Cost(0)
	for k := 1; k < o.inst.Cfg.K(); k++ {
		if c := o.inst.Cfg.Cost(k); c < best {
			best = c
		}
	}
	marginal := func(e int) float64 {
		if o.perEdge[e].Covers(r.Time) {
			return 0
		}
		return o.inst.G.Edge(e).Weight * best
	}
	p, err := o.inst.G.ShortestPath(r.S, r.T, marginal)
	if err != nil {
		return fmt.Errorf("steiner: request (%d,%d) at %d: %w", r.S, r.T, r.Time, err)
	}
	for _, e := range p.Edges {
		if o.perEdge[e].Covers(r.Time) {
			continue
		}
		before, n := o.perEdge[e].TotalCost(), len(o.perEdge[e].BoughtSince(0))
		if err := o.perEdge[e].Arrive(r.Time); err != nil {
			return fmt.Errorf("steiner: edge %d lease: %w", e, err)
		}
		o.total += o.perEdge[e].TotalCost() - before
		for _, ls := range o.perEdge[e].BoughtSince(n) {
			o.log = append(o.log, core.ItemLease{Item: e, K: ls.K, Start: ls.Start})
		}
		if !o.perEdge[e].Covers(r.Time) {
			return fmt.Errorf("steiner: edge %d still inactive after leasing", e)
		}
	}
	return nil
}

// Run processes all requests of the instance.
func (o *Online) Run() error {
	for _, r := range o.inst.Requests {
		if err := o.Serve(r); err != nil {
			return err
		}
	}
	return nil
}

// TotalCost returns the accumulated leasing cost.
func (o *Online) TotalCost() float64 { return o.total }

// BoughtSince returns the edge leases bought after the first n, in buy
// order, as (edge, type, start) triples. The slice aliases the purchase
// log; callers must not mutate it.
func (o *Online) BoughtSince(n int) []core.ItemLease { return o.log[n:] }

// Connected reports whether s and t are connected by edges active at time
// tm — the feasibility predicate.
func (o *Online) Connected(s, t int, tm int64) bool {
	p, err := o.inst.G.ShortestPath(s, t, func(e int) float64 {
		if o.perEdge[e].Covers(tm) {
			return 0
		}
		return 1
	})
	return err == nil && p.Cost == 0
}

// VerifyFeasible replays the requests against the final per-edge lease
// state. Because leases expire, feasibility is checked at each request's
// own timestamp.
func (o *Online) VerifyFeasible() error {
	for i, r := range o.inst.Requests {
		if !o.Connected(r.S, r.T, r.Time) {
			return fmt.Errorf("steiner: request %d (%d,%d) at %d not connected", i, r.S, r.T, r.Time)
		}
	}
	return nil
}

// OfflineTreeBaseline computes a hindsight baseline: route every request
// on the static shortest path of the underlying graph, collect each
// edge's demand days, and buy each used edge's leases exactly optimally
// with the laminar DP. The result is a feasible offline solution (not
// necessarily optimal, but a strong anchor for ratio measurements).
func OfflineTreeBaseline(inst *Instance) (float64, error) {
	edgeDays := map[int][]int64{}
	for _, r := range inst.Requests {
		p, err := inst.G.ShortestPath(r.S, r.T, nil)
		if err != nil {
			return 0, fmt.Errorf("steiner: baseline routing (%d,%d): %w", r.S, r.T, err)
		}
		for _, e := range p.Edges {
			days := edgeDays[e]
			if len(days) == 0 || days[len(days)-1] != r.Time {
				edgeDays[e] = append(days, r.Time)
			}
		}
	}
	var total float64
	for e, days := range edgeDays {
		cost, _, err := parking.Optimal(edgeConfig(inst.Cfg, inst.G.Edge(e).Weight), days)
		if err != nil {
			return 0, err
		}
		total += cost
	}
	return total, nil
}
