package server_test

// Remote determinism anchor: for every domain leaser, a session driven
// through the HTTP service — opened from a wire spec, events submitted
// over the network by the real client — must yield a Result
// byte-identical to a single-threaded stream.Replay. Two references are
// compared: a leaser built from the same wire spec (the documented
// reproducibility contract of the open endpoint) and a leaser built
// directly through the root facade (proving spec construction and
// facade construction are the same algorithm).

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"leasing"
	"leasing/internal/client"
	"leasing/internal/engine"
	"leasing/internal/server"
	"leasing/internal/stream"
	"leasing/internal/wire"
)

// remoteCase is one domain: the wire spec that opens it remotely, the
// event stream, and a facade-built reference leaser factory.
type remoteCase struct {
	name   string
	spec   wire.OpenRequest
	events []stream.Event
	fresh  func() (stream.Leaser, error)
}

func remoteCases(t *testing.T) []remoteCase {
	t.Helper()
	cfg, err := leasing.NewLeaseConfig(
		leasing.LeaseType{Length: 1, Cost: 1},
		leasing.LeaseType{Length: 4, Cost: 2},
		leasing.LeaseType{Length: 16, Cost: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	types := wire.ConfigTypes(cfg)
	var cases []remoteCase

	var days []int64
	dayRng := rand.New(rand.NewSource(1))
	for tm := int64(0); tm < 120; tm++ {
		if dayRng.Float64() < 0.4 {
			days = append(days, tm)
		}
	}
	cases = append(cases, remoteCase{
		name:   "parking",
		spec:   wire.OpenRequest{Domain: wire.DomainParking, Types: types},
		events: leasing.DayEvents(days),
		fresh: func() (stream.Leaser, error) {
			alg, err := leasing.NewDeterministicParkingPermit(cfg)
			if err != nil {
				return nil, err
			}
			return leasing.NewParkingStream(alg), nil
		},
	})
	cases = append(cases, remoteCase{
		name:   "parking-rand",
		spec:   wire.OpenRequest{Domain: wire.DomainParkingRand, Types: types, Seed: 11},
		events: leasing.DayEvents(days),
		fresh: func() (stream.Leaser, error) {
			alg, err := leasing.NewRandomizedParkingPermit(cfg, rand.New(rand.NewSource(11)))
			if err != nil {
				return nil, err
			}
			return leasing.NewParkingStream(alg), nil
		},
	})

	wRng := rand.New(rand.NewSource(2))
	var windows []leasing.DeadlineClient
	for tm := int64(0); tm < 100; tm++ {
		if wRng.Float64() < 0.4 {
			windows = append(windows, leasing.DeadlineClient{T: tm, D: int64(wRng.Intn(8))})
		}
	}
	cases = append(cases, remoteCase{
		name:   "deadline",
		spec:   wire.OpenRequest{Domain: wire.DomainDeadline, Types: types},
		events: leasing.WindowEvents(windows),
		fresh:  func() (stream.Leaser, error) { return leasing.NewDeadlineStream(cfg) },
	})

	sets := [][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}, {1, 4}}
	scCosts := [][]float64{{1, 2, 5}, {1.5, 2.5, 4}, {1, 2, 5}, {2, 3, 6}, {1, 1.8, 4.4}}
	scRng := rand.New(rand.NewSource(3))
	var scArrivals []leasing.ElementArrival
	for tm := int64(0); tm < 90; tm++ {
		if scRng.Float64() < 0.5 {
			scArrivals = append(scArrivals, leasing.ElementArrival{
				T: tm, Elem: scRng.Intn(6), P: 1 + scRng.Intn(2)})
		}
	}
	fam, err := leasing.NewSetFamily(6, sets)
	if err != nil {
		t.Fatal(err)
	}
	scInst, err := leasing.NewSetCoverInstance(fam, cfg, scCosts, scArrivals, leasing.PerArrival)
	if err != nil {
		t.Fatal(err)
	}
	warr := make([]wire.ElementArrival, len(scArrivals))
	for i, a := range scArrivals {
		warr[i] = wire.ElementArrival{T: a.T, Elem: a.Elem, P: a.P}
	}
	cases = append(cases, remoteCase{
		name: "setcover",
		spec: wire.OpenRequest{
			Domain: wire.DomainSetCover, Types: types, Seed: 7,
			SetCover: &wire.SetCoverSpec{Elements: 6, Sets: sets, Costs: scCosts, Arrivals: warr},
		},
		events: leasing.ElementEvents(scArrivals),
		fresh: func() (stream.Leaser, error) {
			return leasing.NewSetCoverStream(scInst, rand.New(rand.NewSource(7)))
		},
	})

	scldRng := rand.New(rand.NewSource(8))
	var scldArrivals []leasing.SCLDArrival
	for tm := int64(0); tm < 80; tm++ {
		if scldRng.Float64() < 0.4 {
			scldArrivals = append(scldArrivals, leasing.SCLDArrival{
				T: tm, Elem: scldRng.Intn(4), D: int64(scldRng.Intn(5))})
		}
	}
	scldSets := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	scldCosts := [][]float64{{1, 2, 4}, {1, 2, 4}, {1, 2, 4}, {1, 2, 4}}
	scldFam, err := leasing.NewSetFamily(4, scldSets)
	if err != nil {
		t.Fatal(err)
	}
	scldInst, err := leasing.NewSCLDInstance(scldFam, cfg, scldCosts, scldArrivals)
	if err != nil {
		t.Fatal(err)
	}
	scldWarr := make([]wire.SCLDArrival, len(scldArrivals))
	for i, a := range scldArrivals {
		scldWarr[i] = wire.SCLDArrival{T: a.T, Elem: a.Elem, D: a.D}
	}
	cases = append(cases, remoteCase{
		name: "scld",
		spec: wire.OpenRequest{
			Domain: wire.DomainSCLD, Types: types, Seed: 9,
			SCLD: &wire.SCLDSpec{Elements: 4, Sets: scldSets, Costs: scldCosts, Arrivals: scldWarr},
		},
		events: leasing.ElementWindowEvents(scldArrivals),
		fresh: func() (stream.Leaser, error) {
			return leasing.NewSCLDStream(scldInst, rand.New(rand.NewSource(9)))
		},
	})

	facRng := rand.New(rand.NewSource(6))
	sites := []leasing.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 8}}
	facCosts := [][]float64{{1, 2, 5}, {1, 2, 5}, {1.5, 3, 6}}
	batches := make([][]leasing.Point, 40)
	for i := range batches {
		for c := facRng.Intn(3); c > 0; c-- {
			s := sites[facRng.Intn(len(sites))]
			batches[i] = append(batches[i], leasing.Point{
				X: s.X + facRng.Float64()*2, Y: s.Y + facRng.Float64()*2})
		}
	}
	facInst, err := leasing.NewFacilityInstance(cfg, sites, facCosts, batches)
	if err != nil {
		t.Fatal(err)
	}
	wSites := make([]wire.Point, len(sites))
	for i, p := range sites {
		wSites[i] = wire.Point{X: p.X, Y: p.Y}
	}
	wBatches := make([][]wire.Point, len(batches))
	for i, b := range batches {
		if b == nil {
			continue
		}
		wBatches[i] = make([]wire.Point, len(b))
		for j, p := range b {
			wBatches[i][j] = wire.Point{X: p.X, Y: p.Y}
		}
	}
	cases = append(cases, remoteCase{
		name: "facility",
		spec: wire.OpenRequest{
			Domain: wire.DomainFacility, Types: types,
			Facility: &wire.FacilitySpec{Sites: wSites, Costs: facCosts, Batches: wBatches},
		},
		events: leasing.BatchEvents(batches),
		fresh:  func() (stream.Leaser, error) { return leasing.NewFacilityStream(facInst) },
	})

	g, err := leasing.RandomConnectedGraph(rand.New(rand.NewSource(10)), 12, 24, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	stRng := rand.New(rand.NewSource(12))
	var reqs []leasing.SteinerRequest
	for tm := int64(0); tm < 90; tm++ {
		if stRng.Float64() < 0.5 {
			s := stRng.Intn(12)
			u := stRng.Intn(11)
			if u >= s {
				u++
			}
			reqs = append(reqs, leasing.SteinerRequest{Time: tm, S: s, T: u})
		}
	}
	stInst, err := leasing.NewSteinerInstance(g, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	wEdges := make([]wire.Edge, g.M())
	for i, e := range g.Edges() {
		wEdges[i] = wire.Edge{U: e.U, V: e.V, W: e.Weight}
	}
	wReqs := make([]wire.ConnectRequest, len(reqs))
	for i, r := range reqs {
		wReqs[i] = wire.ConnectRequest{T: r.Time, S: r.S, U: r.T}
	}
	cases = append(cases, remoteCase{
		name: "steiner",
		spec: wire.OpenRequest{
			Domain: wire.DomainSteiner, Types: types,
			Steiner: &wire.SteinerSpec{Vertices: 12, Edges: wEdges, Requests: wReqs},
		},
		events: leasing.ConnectEvents(reqs),
		fresh:  func() (stream.Leaser, error) { return leasing.NewSteinerStream(stInst) },
	})

	ruRng := rand.New(rand.NewSource(14))
	var ruReqs []leasing.ReusableRequest
	for tm := int64(0); tm < 100; tm++ {
		if ruRng.Float64() < 0.5 {
			ruReqs = append(ruReqs, leasing.ReusableRequest{T: tm, Dur: int64(ruRng.Intn(9))})
		}
	}
	ruInst, err := leasing.NewReusableInstance(cfg, 3, ruReqs)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, remoteCase{
		name: "reusable",
		spec: wire.OpenRequest{
			Domain: wire.DomainReusable, Types: types,
			Reusable: &wire.ReusableSpec{Capacity: 3},
		},
		events: leasing.UseEvents(ruReqs),
		fresh:  func() (stream.Leaser, error) { return leasing.NewReusableStream(ruInst) },
	})

	return cases
}

// TestRemoteCasesCoverAllWireDomains is the suite's completeness gate:
// every domain registered in wire.Domains must appear as a remote case
// (so the parity, binary-parity and recovery harnesses all exercise
// it), and no case may name a domain the wire layer does not register.
// Registering a ninth domain without extending remoteCases fails here,
// not silently.
func TestRemoteCasesCoverAllWireDomains(t *testing.T) {
	covered := make(map[string]bool)
	for _, tc := range remoteCases(t) {
		covered[tc.spec.Domain] = true
	}
	for _, d := range wire.Domains() {
		if !covered[d] {
			t.Errorf("wire domain %q has no remote case; parity, binary-parity and recovery suites are not exercising it", d)
		}
		delete(covered, d)
	}
	for d := range covered {
		t.Errorf("remote case domain %q is not registered in wire.Domains", d)
	}
}

// TestRemoteParityWithReplay drives all eight domain leasers through
// the HTTP service via the real client and holds each remote Result to
// byte-identity with single-threaded Replays of (a) a leaser rebuilt
// from the session's own wire spec and (b) a facade-built leaser.
func TestRemoteParityWithReplay(t *testing.T) {
	cases := remoteCases(t)
	eng := engine.New(engine.Config{Shards: 4, BatchSize: 8, QueueDepth: 16, RecordRuns: true})
	ts := httptest.NewServer(server.New(eng, server.Config{ChunkSize: 16}))
	defer func() {
		ts.Close()
		eng.Close()
	}()
	cli := client.New(ts.URL, client.Options{Chunk: 5})
	ctx := context.Background()

	for _, tc := range cases {
		if err := cli.Open(ctx, tc.name, tc.spec); err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
	}
	for _, tc := range cases {
		wevs, err := wire.FromStreamEvents(tc.events)
		if err != nil {
			t.Fatalf("%s: wire events: %v", tc.name, err)
		}
		if _, err := cli.Submit(ctx, tc.name, wevs); err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
	}
	if err := cli.Flush(ctx, cases[0].name); err != nil {
		t.Fatal(err)
	}

	for _, tc := range cases {
		wrun, err := cli.Result(ctx, tc.name)
		if err != nil {
			t.Fatalf("%s: result: %v", tc.name, err)
		}
		got := fmt.Sprintf("%#v", wrun.Stream())

		specRef, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%s: spec build: %v", tc.name, err)
		}
		specWant, err := stream.Replay(specRef, tc.events)
		if err != nil {
			t.Fatalf("%s: spec replay: %v", tc.name, err)
		}
		if want := fmt.Sprintf("%#v", specWant); got != want {
			t.Errorf("%s: remote run not byte-identical to spec-built Replay:\nremote %s\nreplay %s",
				tc.name, got, want)
		}

		facadeRef, err := tc.fresh()
		if err != nil {
			t.Fatalf("%s: fresh: %v", tc.name, err)
		}
		facadeWant, err := stream.Replay(facadeRef, tc.events)
		if err != nil {
			t.Fatalf("%s: facade replay: %v", tc.name, err)
		}
		if want := fmt.Sprintf("%#v", facadeWant); got != want {
			t.Errorf("%s: remote run not byte-identical to facade-built Replay:\nremote %s\nreplay %s",
				tc.name, got, want)
		}

		cost, err := cli.Cost(ctx, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Stream() != specWant.Final {
			t.Errorf("%s: remote cost %+v != replay final %+v", tc.name, cost, specWant.Final)
		}
		snap, err := cli.Snapshot(ctx, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", snap.Stream()), fmt.Sprintf("%#v", facadeRef.Snapshot()); got != want {
			t.Errorf("%s: remote snapshot differs from replay snapshot:\nremote %s\nreplay %s", tc.name, got, want)
		}
		n, err := cli.Processed(ctx, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(tc.events)) {
			t.Errorf("%s: remote processed %d events, want %d", tc.name, n, len(tc.events))
		}
	}
}
