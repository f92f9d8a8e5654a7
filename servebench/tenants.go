package main

// Tenant synthesis. Every tenant's instance and event stream come from
// internal/workload under a seed derived from the run's --seed and the
// tenant's index, so one seed always yields the same inputs. Each
// stream is cut to exactly the workload's history length, so every
// tenant ends a round with the same number of applied events.

import (
	"fmt"
	"math/rand"

	"leasing"
	"leasing/internal/wire"
	wl "leasing/internal/workload"
)

// tenant is one session's inputs: its open spec (the Leaser both the
// node and the reference Replay are built from) and its event stream.
type tenant struct {
	name   string
	domain string
	spec   leasing.RemoteOpenRequest
	events []leasing.Event
}

// synthesize builds the workload's tenants for seed. Domains cycle with
// the tenant index.
func synthesize(w workload, seed int64) ([]*tenant, error) {
	cfg := leasing.PowerLeaseConfig(3, 4, 0.55)
	n := w.nominal + w.saturate
	ts := make([]*tenant, w.tenants)
	for i := range ts {
		domain := w.domains[i%len(w.domains)]
		t, err := buildTenant(domain, cfg, seed*1_000_003+int64(i), n)
		if err != nil {
			return nil, fmt.Errorf("tenant %d (%s): %w", i, domain, err)
		}
		t.name = fmt.Sprintf("t%03d-%s", i, domain)
		if len(t.events) != n {
			return nil, fmt.Errorf("%s: synthesized %d events, want %d", t.name, len(t.events), n)
		}
		ts[i] = t
	}
	return ts, nil
}

// buildTenant synthesizes one tenant of the domain with exactly n
// events. Demand arrives on about half the steps of a horizon long
// enough to hold n events; the stream is cut after the n-th.
func buildTenant(domain string, cfg *leasing.LeaseConfig, seed int64, n int) (*tenant, error) {
	rng := rand.New(rand.NewSource(seed))
	horizon := int64(3*n + 64)
	arr, err := wl.NewConstant(0.5)
	if err != nil {
		return nil, err
	}
	types := leasing.WireLeaseTypes(cfg)
	t := &tenant{domain: domain}
	switch domain {
	case "days":
		days, err := firstN(wl.ArrivalDays(rng, horizon, arr), n)
		if err != nil {
			return nil, err
		}
		t.events = leasing.DayEvents(days)
		t.spec = leasing.RemoteOpenRequest{Domain: wire.DomainParking, Types: types}

	case "deadline":
		clients, err := firstN(wl.DeadlineArrivals(rng, horizon, arr, 12), n)
		if err != nil {
			return nil, err
		}
		t.events = leasing.WindowEvents(clients)
		t.spec = leasing.RemoteOpenRequest{Domain: wire.DomainDeadline, Types: types}

	case "elements":
		const elems, sets, delta = 32, 20, 3
		zipf, err := wl.NewZipf(rng, elems, 1.5)
		if err != nil {
			return nil, err
		}
		arrivals, err := firstN(wl.ElementArrivals(rng, horizon, arr,
			zipf.Draw, func() int { return 1 + rng.Intn(2) }), n)
		if err != nil {
			return nil, err
		}
		fam, err := leasing.RandomSetFamily(rng, elems, sets, delta)
		if err != nil {
			return nil, err
		}
		costs := leasing.RandomSetCosts(rng, sets, cfg, 0.5)
		family := make([][]int, fam.M())
		for s := range family {
			family[s] = fam.Set(s)
		}
		warr := make([]wire.ElementArrival, len(arrivals))
		for j, a := range arrivals {
			warr[j] = wire.ElementArrival{T: a.T, Elem: a.Elem, P: a.P}
		}
		t.events = leasing.ElementEvents(arrivals)
		t.spec = leasing.RemoteOpenRequest{
			Domain: wire.DomainSetCover, Types: types, Seed: seed + 1,
			SetCover: &wire.SetCoverSpec{Elements: elems, Sets: family, Costs: costs, Arrivals: warr},
		}

	case "facility":
		// One batch event per step, empty steps included. A quarter of
		// the steps bring one client near one of a handful of sites: the
		// algorithm's cost grows faster than linearly with the clients
		// seen, and at this density a 256-event facility tenant costs
		// about what a Steiner tenant does.
		const sitesN = 6
		sparse, err := wl.NewConstant(0.25)
		if err != nil {
			return nil, err
		}
		sites := make([]wire.Point, sitesN)
		for s := range sites {
			sites[s] = wire.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		facCosts := make([][]float64, sitesN)
		for s := range facCosts {
			f := 1 + rng.Float64()*0.5
			facCosts[s] = make([]float64, cfg.K())
			for k := range facCosts[s] {
				facCosts[s][k] = cfg.Cost(k) * f
			}
		}
		batches := make([][]leasing.Point, n)
		wbatches := make([][]wire.Point, n)
		for step := range batches {
			if !sparse.Step(rng, int64(step)) {
				continue
			}
			s := sites[rng.Intn(sitesN)]
			p := leasing.Point{X: s.X + rng.Float64()*4, Y: s.Y + rng.Float64()*4}
			batches[step] = []leasing.Point{p}
			wbatches[step] = []wire.Point{{X: p.X, Y: p.Y}}
		}
		t.events = leasing.BatchEvents(batches)
		t.spec = leasing.RemoteOpenRequest{
			Domain: wire.DomainFacility, Types: types,
			Facility: &wire.FacilitySpec{Sites: sites, Costs: facCosts, Batches: wbatches},
		}

	case "steiner":
		const terminals = 16
		g, err := leasing.RandomConnectedGraph(rng, terminals, 3*terminals, 1, 10)
		if err != nil {
			return nil, err
		}
		connects, err := wl.ConnectArrivals(rng, horizon, arr, terminals)
		if err != nil {
			return nil, err
		}
		if connects, err = firstN(connects, n); err != nil {
			return nil, err
		}
		reqs := make([]leasing.SteinerRequest, n)
		wreqs := make([]wire.ConnectRequest, n)
		for j, c := range connects {
			reqs[j] = leasing.SteinerRequest{Time: c.T, S: c.S, T: c.U}
			wreqs[j] = wire.ConnectRequest{T: c.T, S: c.S, U: c.U}
		}
		edges := make([]wire.Edge, g.M())
		for j, e := range g.Edges() {
			edges[j] = wire.Edge{U: e.U, V: e.V, W: e.Weight}
		}
		t.events = leasing.ConnectEvents(reqs)
		t.spec = leasing.RemoteOpenRequest{
			Domain: wire.DomainSteiner, Types: types,
			Steiner: &wire.SteinerSpec{Vertices: terminals, Edges: edges, Requests: wreqs},
		}

	case "reusable":
		// A pool of four units, usage durations uniform in [1, 8]: both
		// grants and whole-pool-busy rejections occur.
		const capacity = 4
		days, err := firstN(wl.ArrivalDays(rng, horizon, arr), n)
		if err != nil {
			return nil, err
		}
		reqs := make([]leasing.ReusableRequest, n)
		for j, d := range days {
			reqs[j] = leasing.ReusableRequest{T: d, Dur: 1 + int64(rng.Intn(8))}
		}
		t.events = leasing.UseEvents(reqs)
		t.spec = leasing.RemoteOpenRequest{
			Domain: wire.DomainReusable, Types: types,
			Reusable: &wire.ReusableSpec{Capacity: capacity},
		}

	default:
		return nil, fmt.Errorf("unknown domain %q", domain)
	}
	return t, nil
}

// firstN cuts a synthesized arrival list to its first n entries.
func firstN[T any](xs []T, n int) ([]T, error) {
	if len(xs) < n {
		return nil, fmt.Errorf("synthesized %d arrivals, want %d", len(xs), n)
	}
	return xs[:n], nil
}
