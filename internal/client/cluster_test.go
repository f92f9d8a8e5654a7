package client_test

// Cluster client integration tests against real in-process nodes: each
// node is an engine + server with cluster mode on, wired with follower
// logs and a replicated WAL exactly as cmd/leased wires them. The tests
// prove the PR's two headline invariants:
//
//   - Failover: killing a node and activating its tenants' replicas
//     yields state byte-identical to an uninterrupted single-node run
//     of the same history.
//   - Fault tolerance: under injected connection failures, raw 5xx,
//     dropped responses and mid-body resets — and even with a stale
//     client routing everything through one node, so every request
//     rides a 307 — resumed ingestion converges to that same
//     byte-identical state.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"leasing"
	"leasing/internal/chaos"
	"leasing/internal/client"
	"leasing/internal/cluster"
	"leasing/internal/engine"
	"leasing/internal/server"
	"leasing/internal/wal"
	"leasing/internal/wire"
)

// node is one in-process cluster member.
type node struct {
	url     string
	ts      *httptest.Server
	eng     *engine.Engine
	sh      *cluster.Shipper
	own     *wal.Log
	follow  *wal.Log
	stopped bool
}

// kill simulates a crash: stop serving and drop the engine. The node's
// logs stay on disk, as they would after a SIGKILL.
func (n *node) kill() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.ts.CloseClientConnections()
	n.ts.Close()
	n.eng.Close()
}

// startNodes brings up an n-node cluster with log-shipping replication.
// Listeners are created first so every node (and its shipper) knows the
// full peer URL list before serving.
func startNodes(t *testing.T, n int) []*node {
	t.Helper()
	nodes := make([]*node, n)
	urls := make([]string, n)
	for i := range nodes {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		nodes[i] = &node{ts: ts, url: "http://" + ts.Listener.Addr().String()}
		urls[i] = nodes[i].url
	}
	for i, nd := range nodes {
		var err error
		nd.follow, err = wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nd.own, err = wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nd.sh, err = cluster.NewShipper(nd.url, urls, cluster.ShipperOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rl := cluster.NewReplicatedLog(nd.own, nd.sh)
		nd.eng = engine.New(engine.Config{Shards: 2, RecordRuns: true, WAL: rl})
		srv := server.New(nd.eng, server.Config{Cluster: &server.ClusterConfig{
			Self: nd.url, Peers: urls, Follower: nd.follow, WAL: rl,
		}})
		nd.ts.Config.Handler = srv
		nd.ts.Start()
		i := i
		t.Cleanup(func() {
			nodes[i].kill()
			nd.sh.Close()
			nd.own.Close()
			nd.follow.Close()
		})
	}
	return nodes
}

// clusterCase is one domain tenant template: the wire spec it opens
// with and the deterministic event history it replicates.
type clusterCase struct {
	domain string
	spec   wire.OpenRequest
	events []wire.Event
}

// clusterCases builds one template per registered wire domain, sized so
// half-histories still carry meaningful lease state across a failover.
// Randomized domains carry their seed in the spec, so a replica rebuilt
// from the replicated log replays the exact same coin flips.
func clusterCases(t *testing.T) []clusterCase {
	t.Helper()
	cfg, err := leasing.NewLeaseConfig(
		leasing.LeaseType{Length: 1, Cost: 1},
		leasing.LeaseType{Length: 4, Cost: 2.5},
		leasing.LeaseType{Length: 16, Cost: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	types := wire.ConfigTypes(cfg)
	toWire := func(evs []leasing.Event) []wire.Event {
		w, err := wire.FromStreamEvents(evs)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	var cases []clusterCase

	var days []int64
	dayRng := rand.New(rand.NewSource(21))
	for tm := int64(0); tm < 90; tm++ {
		if dayRng.Float64() < 0.5 {
			days = append(days, tm)
		}
	}
	cases = append(cases, clusterCase{
		domain: wire.DomainParking,
		spec:   wire.OpenRequest{Domain: wire.DomainParking, Types: types},
		events: toWire(leasing.DayEvents(days)),
	})
	cases = append(cases, clusterCase{
		domain: wire.DomainParkingRand,
		spec:   wire.OpenRequest{Domain: wire.DomainParkingRand, Types: types, Seed: 11},
		events: toWire(leasing.DayEvents(days)),
	})

	wRng := rand.New(rand.NewSource(22))
	var windows []leasing.DeadlineClient
	for tm := int64(0); tm < 80; tm++ {
		if wRng.Float64() < 0.5 {
			windows = append(windows, leasing.DeadlineClient{T: tm, D: int64(wRng.Intn(6))})
		}
	}
	cases = append(cases, clusterCase{
		domain: wire.DomainDeadline,
		spec:   wire.OpenRequest{Domain: wire.DomainDeadline, Types: types},
		events: toWire(leasing.WindowEvents(windows)),
	})

	sets := [][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}, {1, 4}}
	scCosts := [][]float64{{1, 2, 5}, {1.5, 2.5, 4}, {1, 2, 5}, {2, 3, 6}, {1, 1.8, 4.4}}
	scRng := rand.New(rand.NewSource(23))
	var scArrivals []leasing.ElementArrival
	for tm := int64(0); tm < 70; tm++ {
		if scRng.Float64() < 0.5 {
			scArrivals = append(scArrivals, leasing.ElementArrival{
				T: tm, Elem: scRng.Intn(6), P: 1 + scRng.Intn(2)})
		}
	}
	warr := make([]wire.ElementArrival, len(scArrivals))
	for i, a := range scArrivals {
		warr[i] = wire.ElementArrival{T: a.T, Elem: a.Elem, P: a.P}
	}
	cases = append(cases, clusterCase{
		domain: wire.DomainSetCover,
		spec: wire.OpenRequest{
			Domain: wire.DomainSetCover, Types: types, Seed: 7,
			SetCover: &wire.SetCoverSpec{Elements: 6, Sets: sets, Costs: scCosts, Arrivals: warr},
		},
		events: toWire(leasing.ElementEvents(scArrivals)),
	})

	scldRng := rand.New(rand.NewSource(24))
	var scldArrivals []leasing.SCLDArrival
	for tm := int64(0); tm < 70; tm++ {
		if scldRng.Float64() < 0.5 {
			scldArrivals = append(scldArrivals, leasing.SCLDArrival{
				T: tm, Elem: scldRng.Intn(4), D: int64(scldRng.Intn(5))})
		}
	}
	scldSets := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	scldCosts := [][]float64{{1, 2, 4}, {1, 2, 4}, {1, 2, 4}, {1, 2, 4}}
	scldWarr := make([]wire.SCLDArrival, len(scldArrivals))
	for i, a := range scldArrivals {
		scldWarr[i] = wire.SCLDArrival{T: a.T, Elem: a.Elem, D: a.D}
	}
	cases = append(cases, clusterCase{
		domain: wire.DomainSCLD,
		spec: wire.OpenRequest{
			Domain: wire.DomainSCLD, Types: types, Seed: 9,
			SCLD: &wire.SCLDSpec{Elements: 4, Sets: scldSets, Costs: scldCosts, Arrivals: scldWarr},
		},
		events: toWire(leasing.ElementWindowEvents(scldArrivals)),
	})

	facRng := rand.New(rand.NewSource(25))
	sites := []leasing.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 8}}
	facCosts := [][]float64{{1, 2, 5}, {1, 2, 5}, {1.5, 3, 6}}
	batches := make([][]leasing.Point, 36)
	for i := range batches {
		for c := facRng.Intn(3); c > 0; c-- {
			s := sites[facRng.Intn(len(sites))]
			batches[i] = append(batches[i], leasing.Point{
				X: s.X + facRng.Float64()*2, Y: s.Y + facRng.Float64()*2})
		}
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
	cases = append(cases, clusterCase{
		domain: wire.DomainFacility,
		spec: wire.OpenRequest{
			Domain: wire.DomainFacility, Types: types,
			Facility: &wire.FacilitySpec{Sites: wSites, Costs: facCosts, Batches: wBatches},
		},
		events: toWire(leasing.BatchEvents(batches)),
	})

	g, err := leasing.RandomConnectedGraph(rand.New(rand.NewSource(26)), 10, 20, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	stRng := rand.New(rand.NewSource(27))
	var reqs []leasing.SteinerRequest
	for tm := int64(0); tm < 70; tm++ {
		if stRng.Float64() < 0.5 {
			s := stRng.Intn(10)
			u := stRng.Intn(9)
			if u >= s {
				u++
			}
			reqs = append(reqs, leasing.SteinerRequest{Time: tm, S: s, T: u})
		}
	}
	wEdges := make([]wire.Edge, g.M())
	for i, e := range g.Edges() {
		wEdges[i] = wire.Edge{U: e.U, V: e.V, W: e.Weight}
	}
	wReqs := make([]wire.ConnectRequest, len(reqs))
	for i, r := range reqs {
		wReqs[i] = wire.ConnectRequest{T: r.Time, S: r.S, U: r.T}
	}
	cases = append(cases, clusterCase{
		domain: wire.DomainSteiner,
		spec: wire.OpenRequest{
			Domain: wire.DomainSteiner, Types: types,
			Steiner: &wire.SteinerSpec{Vertices: 10, Edges: wEdges, Requests: wReqs},
		},
		events: toWire(leasing.ConnectEvents(reqs)),
	})

	ruRng := rand.New(rand.NewSource(28))
	var ruReqs []leasing.ReusableRequest
	for tm := int64(0); tm < 80; tm++ {
		if ruRng.Float64() < 0.5 {
			ruReqs = append(ruReqs, leasing.ReusableRequest{T: tm, Dur: int64(ruRng.Intn(8))})
		}
	}
	cases = append(cases, clusterCase{
		domain: wire.DomainReusable,
		spec: wire.OpenRequest{
			Domain: wire.DomainReusable, Types: types,
			Reusable: &wire.ReusableSpec{Capacity: 2},
		},
		events: toWire(leasing.UseEvents(ruReqs)),
	})

	return cases
}

// TestClusterCasesCoverAllWireDomains is the suite's completeness gate:
// every domain registered in wire.Domains must have a cluster tenant
// template, so the replica byte-identity drills exercise all of them.
func TestClusterCasesCoverAllWireDomains(t *testing.T) {
	covered := make(map[string]bool)
	for _, tc := range clusterCases(t) {
		if tc.domain != tc.spec.Domain {
			t.Errorf("cluster case %q opens with mismatched spec domain %q", tc.domain, tc.spec.Domain)
		}
		covered[tc.domain] = true
	}
	for _, d := range wire.Domains() {
		if !covered[d] {
			t.Errorf("wire domain %q has no cluster case; failover and chaos drills are not exercising it", d)
		}
		delete(covered, d)
	}
	for d := range covered {
		t.Errorf("cluster case domain %q is not registered in wire.Domains", d)
	}
}

// referenceRun replays a tenant's full history on a fresh single-node
// service and returns the marshaled run — the byte-identity baseline.
func referenceRun(t *testing.T, tenant string, spec wire.OpenRequest, evs []wire.Event) []byte {
	t.Helper()
	eng := engine.New(engine.Config{Shards: 2, RecordRuns: true})
	defer eng.Close()
	ts := httptest.NewServer(server.New(eng, server.Config{}))
	defer ts.Close()
	c := client.New(ts.URL, client.Options{})
	ctx := context.Background()
	if err := c.Open(ctx, tenant, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, tenant, evs); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx, tenant); err != nil {
		t.Fatal(err)
	}
	run, err := c.Result(ctx, tenant)
	if err != nil {
		t.Fatal(err)
	}
	return mustMarshal(t, run)
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterFailoverByteIdentity is the in-process kill-one-node
// drill: load one tenant per domain (plus a spare, so nine tenants
// spread over all eight domains) across three nodes, flush replication,
// kill one node, fail its tenants over, resume the second half of every
// history, and require each tenant's final recorded run to be
// byte-identical to an uninterrupted single-node replay.
func TestClusterFailoverByteIdentity(t *testing.T) {
	nodes := startNodes(t, 3)
	peers := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	cl, err := client.NewCluster(peers, client.Options{RetryWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cases := clusterCases(t)
	tenants := len(cases) + 1
	names := make([]string, tenants)
	specs := make([]wire.OpenRequest, tenants)
	full := make([][]wire.Event, tenants)
	for i := range names {
		tc := cases[i%len(cases)]
		names[i] = "tenant-" + string(rune('a'+i)) + "-" + tc.domain
		specs[i] = tc.spec
		full[i] = tc.events
		if err := cl.Open(ctx, names[i], tc.spec); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.SubmitResume(ctx, names[i], full[i][:len(full[i])/2], 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, tn := range names {
		if err := cl.Flush(ctx, tn); err != nil {
			t.Fatal(err)
		}
	}
	// Replication barrier, then the crash. Ring placement hashes the
	// nodes' random loopback ports, so a fixed victim may own nothing;
	// the node owning the most tenants (leaseload -kill's rule) always
	// owns at least a third of them.
	for _, nd := range nodes {
		nd.sh.Flush()
	}
	owned := map[string]int{}
	for _, tn := range names {
		owned[cl.Owner(tn)]++
	}
	victim := nodes[0]
	for _, nd := range nodes {
		if owned[nd.url] > owned[victim.url] {
			victim = nd
		}
	}
	doomed := owned[victim.url]
	if doomed == 0 {
		t.Fatal("no tenant placed on the victim; widen the tenant set")
	}
	victim.kill()

	if err := cl.MarkDown(victim.url); err != nil {
		t.Fatal(err)
	}
	activated, err := cl.Activate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if activated != doomed {
		t.Fatalf("activated %d sessions, want the victim's %d", activated, doomed)
	}

	// Resume every tenant's second half and verify byte identity.
	for i, tn := range names {
		if _, err := cl.SubmitResume(ctx, tn, full[i], len(full[i])/2); err != nil {
			t.Fatalf("%s: resume after failover: %v", tn, err)
		}
		if err := cl.Flush(ctx, tn); err != nil {
			t.Fatal(err)
		}
		processed, err := cl.Processed(ctx, tn)
		if err != nil {
			t.Fatal(err)
		}
		if processed != int64(len(full[i])) {
			t.Fatalf("%s: processed %d, want %d", tn, processed, len(full[i]))
		}
		run, err := cl.Result(ctx, tn)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustMarshal(t, run), referenceRun(t, tn, specs[i], full[i]); string(got) != string(want) {
			t.Fatalf("%s: post-failover run diverged from reference\n got %s\nwant %s", tn, got, want)
		}
	}
}

// TestClusterChaosByteIdentity drives one tenant per domain through a
// fault injector — refused connections, raw 503s, responses dropped
// after delivery, mid-body resets — with a deliberately stale client
// whose ring holds a single node, so nearly every request also crosses
// a 307 redirect. The resumed histories must still land byte-identical
// to fault-free single-node replays.
func TestClusterChaosByteIdentity(t *testing.T) {
	nodes := startNodes(t, 2)
	peers := []string{nodes[0].url, nodes[1].url}
	ctx := context.Background()

	faults := chaos.New(nil, chaos.Options{
		Seed:         41,
		Refuse:       0.06,
		Status503:    0.06,
		DropResponse: 0.06,
		Truncate:     0.06,
	})
	// The stale client knows only node 0: every request for a tenant
	// owned by node 1 is answered 307 and re-sent by the http.Client.
	stale, err := client.NewCluster(peers[:1], client.Options{
		HTTPClient: &http.Client{Transport: faults},
		Chunk:      5,
		RetryWait:  time.Millisecond,
		MaxRetries: 200,
		JitterSeed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := client.NewCluster(peers, client.Options{})
	if err != nil {
		t.Fatal(err)
	}

	redirected := 0
	for i, tc := range clusterCases(t) {
		tn := "chaos-" + string(rune('a'+i)) + "-" + tc.domain
		evs := tc.events
		// Open cleanly: the drill under test is ingestion resume.
		if err := clean.Open(ctx, tn, tc.spec); err != nil {
			t.Fatal(err)
		}
		if clean.Owner(tn) == nodes[1].url {
			redirected++
		}
		if _, err := stale.SubmitResume(ctx, tn, evs, 0); err != nil {
			t.Fatalf("%s: submit under chaos: %v", tn, err)
		}
		if err := clean.Flush(ctx, tn); err != nil {
			t.Fatal(err)
		}
		processed, err := clean.Processed(ctx, tn)
		if err != nil {
			t.Fatal(err)
		}
		if processed != int64(len(evs)) {
			t.Fatalf("%s: processed %d, want %d (lost or duplicated events)", tn, processed, len(evs))
		}
		run, err := clean.Result(ctx, tn)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustMarshal(t, run), referenceRun(t, tn, tc.spec, evs); string(got) != string(want) {
			t.Fatalf("%s: chaotic run diverged from reference\n got %s\nwant %s", tn, got, want)
		}
	}
	if redirected == 0 {
		t.Fatal("every tenant landed on the stale client's one node; no redirect was exercised")
	}
	st := faults.Stats()
	if st.Refused == 0 || st.Status503 == 0 || st.Dropped == 0 || st.Truncated == 0 {
		t.Fatalf("fault injector idle: %+v (raise the event count)", st)
	}
}

// TestClusterMarkDownLastNode: the live ring refuses to go empty.
func TestClusterMarkDownLastNode(t *testing.T) {
	cl, err := client.NewCluster([]string{"http://solo.invalid"}, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.MarkDown("http://solo.invalid"); err == nil {
		t.Fatal("MarkDown removed the last node")
	}
}
