package leasing_test

// Conformance suite for the unified streaming Leaser API: every domain's
// Leaser must (1) report incremental Decision costs that sum to its
// cumulative Cost(), (2) replay deterministically — two fresh leasers over
// the same events produce identical decision streams — (3) produce a
// Snapshot that holds exactly its decisions' leases and assignments and
// passes the domain's feasibility oracle, (4) keep the cost
// curve non-decreasing, and (5) reject payload types it does not
// understand. The suite runs entirely against the public API.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"leasing"
	"leasing/internal/wire"
)

// conformanceCase builds a fresh Leaser (and anything verification needs)
// per call, so replays are independent.
type conformanceCase struct {
	name string
	// domain is the wire.Domain* this case exercises; the meta-test
	// below fails when a registered wire domain has no case here.
	domain string
	// seed derives the case's random source: every randomized
	// construction draws from freshRand(seed), never from the global
	// generator, so replays are deterministic per case by construction.
	seed int64
	// events is the demand stream fed to every fresh leaser.
	events []leasing.Event
	// wrongPayload is an event of a type the leaser must reject.
	wrongPayload leasing.Event
	// fresh constructs a new leaser and a snapshot verifier; rng is a
	// fresh source seeded with the case's seed.
	fresh func(t *testing.T, rng *rand.Rand) (leasing.Leaser, func(leasing.Solution) error)
}

// freshRand is the suite's only random-source constructor: one seeded
// source per leaser construction, the same determinism rule the
// seededrand analyzer enforces on the non-test packages.
func freshRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// build constructs a fresh leaser and verifier from the case's own seed.
func (tc conformanceCase) build(t *testing.T) (leasing.Leaser, func(leasing.Solution) error) {
	return tc.fresh(t, freshRand(tc.seed))
}

func conformanceConfig(t *testing.T) *leasing.LeaseConfig {
	t.Helper()
	cfg, err := leasing.NewLeaseConfig(
		leasing.LeaseType{Length: 1, Cost: 1},
		leasing.LeaseType{Length: 4, Cost: 2},
		leasing.LeaseType{Length: 16, Cost: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func conformanceCases(t *testing.T) []conformanceCase {
	t.Helper()
	cfg := conformanceConfig(t)

	days := []int64{0, 1, 2, 3, 9, 17, 33}
	parking := conformanceCase{
		name:         "parking",
		domain:       wire.DomainParking,
		events:       leasing.DayEvents(days),
		wrongPayload: leasing.ConnectEvent(40, 0, 1),
		fresh: func(t *testing.T, _ *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
			alg, err := leasing.NewDeterministicParkingPermit(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return leasing.NewParkingStream(alg), func(sol leasing.Solution) error {
				if !cfg.CoversAll(leasing.SolutionLeases(sol), days) {
					t.Errorf("parking snapshot does not cover all demand days")
				}
				return nil
			}
		},
	}

	parkingRand := conformanceCase{
		name:         "parking-randomized",
		domain:       wire.DomainParkingRand,
		seed:         11,
		events:       leasing.DayEvents(days),
		wrongPayload: leasing.ElementEvent(40, 0, 1),
		fresh: func(t *testing.T, rng *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
			alg, err := leasing.NewRandomizedParkingPermit(cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			return leasing.NewParkingStream(alg), func(sol leasing.Solution) error {
				if !cfg.CoversAll(leasing.SolutionLeases(sol), days) {
					t.Errorf("randomized parking snapshot does not cover all demand days")
				}
				return nil
			}
		},
	}

	fam, err := leasing.NewSetFamily(3, [][]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	scCosts := [][]float64{{1, 2, 4}, {1, 2, 4}, {1, 2, 4}}
	scArrivals := []leasing.ElementArrival{
		{T: 0, Elem: 0, P: 2}, {T: 2, Elem: 1, P: 1}, {T: 5, Elem: 2, P: 1}, {T: 18, Elem: 0, P: 1},
	}
	scInst, err := leasing.NewSetCoverInstance(fam, cfg, scCosts, scArrivals, leasing.PerArrival)
	if err != nil {
		t.Fatal(err)
	}
	setcover := conformanceCase{
		name:         "setcover",
		domain:       wire.DomainSetCover,
		seed:         7,
		events:       leasing.ElementEvents(scArrivals),
		wrongPayload: leasing.DayEvent(40),
		fresh: func(t *testing.T, rng *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
			lsr, err := leasing.NewSetCoverStream(scInst, rng)
			if err != nil {
				t.Fatal(err)
			}
			return lsr, func(sol leasing.Solution) error {
				return leasing.VerifySetCover(scInst, leasing.SolutionSetLeases(sol))
			}
		},
	}

	// A purchase whose cost the float total absorbs: 1e6 + 1e-11 == 1e6,
	// so the second demand's set shows up in no cost delta, yet it must
	// still show up in its Decision.
	absorbCfg, err := leasing.NewLeaseConfig(leasing.LeaseType{Length: 1, Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	absorbFam, err := leasing.NewSetFamily(2, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	absorbArrivals := []leasing.ElementArrival{{T: 0, Elem: 0, P: 1}, {T: 1, Elem: 1, P: 1}}
	absorbInst, err := leasing.NewSetCoverInstance(absorbFam, absorbCfg, [][]float64{{1e6}, {1e-11}}, absorbArrivals, leasing.PerArrival)
	if err != nil {
		t.Fatal(err)
	}
	setcoverAbsorbed := conformanceCase{
		name:         "setcover-absorbed-cost",
		domain:       wire.DomainSetCover,
		seed:         5,
		events:       leasing.ElementEvents(absorbArrivals),
		wrongPayload: leasing.WindowEvent(40, 1),
		fresh: func(t *testing.T, rng *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
			lsr, err := leasing.NewSetCoverStream(absorbInst, rng)
			if err != nil {
				t.Fatal(err)
			}
			return lsr, func(sol leasing.Solution) error {
				return leasing.VerifySetCover(absorbInst, leasing.SolutionSetLeases(sol))
			}
		},
	}

	// facilityCase wraps one facility instance; its verifier recomputes
	// the snapshot's cost and holds it to the leaser's.
	facilityCase := func(name string, sites []leasing.Point, costs [][]float64, batches [][]leasing.Point, wrong leasing.Event) conformanceCase {
		inst, err := leasing.NewFacilityInstance(cfg, sites, costs, batches)
		if err != nil {
			t.Fatal(err)
		}
		return conformanceCase{
			name:         name,
			domain:       wire.DomainFacility,
			events:       leasing.BatchEvents(batches),
			wrongPayload: wrong,
			fresh: func(t *testing.T, _ *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
				lsr, err := leasing.NewFacilityStream(inst)
				if err != nil {
					t.Fatal(err)
				}
				return lsr, func(sol leasing.Solution) error {
					cost, err := leasing.VerifyFacility(inst,
						leasing.SolutionFacilityLeases(sol),
						leasing.SolutionFacilityAssignments(sol))
					if err != nil {
						return err
					}
					if got := lsr.Cost().Total(); math.Abs(cost-got) > 1e-6 {
						t.Errorf("facility verified cost %v != reported %v", cost, got)
					}
					return nil
				}
			},
		}
	}
	facility := facilityCase("facility",
		[]leasing.Point{{X: 0, Y: 0}, {X: 10, Y: 0}},
		[][]float64{{1, 2, 5}, {1, 2, 5}},
		[][]leasing.Point{
			{{X: 1, Y: 0}},
			{},
			{{X: 9, Y: 0}, {X: 2, Y: 1}},
			{{X: 8, Y: 2}},
		},
		leasing.WindowEvent(40, 2))
	// Three rounds of l_max = 16, so bidding resets twice: every third
	// step is empty (the first one included), the rest carry one or two
	// clients, and both later round boundaries (16 and 32) open with a
	// non-empty batch.
	roundBatches := make([][]leasing.Point, 40)
	for step := range roundBatches {
		for i := 0; i < step%3; i++ {
			roundBatches[step] = append(roundBatches[step], leasing.Point{
				X: float64((step*7 + i*3) % 11), Y: float64((step*5 + i) % 4)})
		}
	}
	facilityRounds := facilityCase("facility-rounds",
		[]leasing.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 3}},
		[][]float64{{1, 2, 5}, {1, 2, 5}, {1.5, 2.5, 6}},
		roundBatches,
		leasing.DayEvent(40))

	dlClients := []leasing.DeadlineClient{{T: 0, D: 5}, {T: 3, D: 2}, {T: 9, D: 0}, {T: 20, D: 7}}
	dlInst, err := leasing.NewDeadlineInstance(cfg, dlClients)
	if err != nil {
		t.Fatal(err)
	}
	deadline := conformanceCase{
		name:         "deadline",
		domain:       wire.DomainDeadline,
		events:       leasing.WindowEvents(dlClients),
		wrongPayload: leasing.BatchEvent(40),
		fresh: func(t *testing.T, _ *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
			lsr, err := leasing.NewDeadlineStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return lsr, func(sol leasing.Solution) error {
				return leasing.VerifyDeadline(dlInst, leasing.SolutionLeases(sol))
			}
		},
	}

	scldFam, err := leasing.NewSetFamily(2, [][]int{{0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	scldArrivals := []leasing.SCLDArrival{{T: 0, Elem: 0, D: 3}, {T: 4, Elem: 1, D: 0}, {T: 9, Elem: 0, D: 2}}
	scldInst, err := leasing.NewSCLDInstance(scldFam, cfg, [][]float64{{1, 2, 4}, {1, 2, 4}}, scldArrivals)
	if err != nil {
		t.Fatal(err)
	}
	scld := conformanceCase{
		name:         "scld",
		domain:       wire.DomainSCLD,
		seed:         3,
		events:       leasing.ElementWindowEvents(scldArrivals),
		wrongPayload: leasing.DayEvent(40),
		fresh: func(t *testing.T, rng *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
			lsr, err := leasing.NewSCLDStream(scldInst, rng)
			if err != nil {
				t.Fatal(err)
			}
			return lsr, func(sol leasing.Solution) error {
				return leasing.VerifySCLD(scldInst, leasing.SolutionSetLeases(sol))
			}
		},
	}

	g, err := leasing.NewGraph(4, []leasing.GraphEdge{
		{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1},
		{U: 2, V: 3, Weight: 2}, {U: 0, V: 3, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []leasing.SteinerRequest{{Time: 0, S: 0, T: 2}, {Time: 2, S: 1, T: 3}, {Time: 17, S: 0, T: 3}}
	stInst, err := leasing.NewSteinerInstance(g, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	steiner := conformanceCase{
		name:         "steiner",
		domain:       wire.DomainSteiner,
		events:       leasing.ConnectEvents(reqs),
		wrongPayload: leasing.ElementWindowEvent(40, 0, 1),
		fresh: func(t *testing.T, _ *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
			lsr, err := leasing.NewSteinerStream(stInst)
			if err != nil {
				t.Fatal(err)
			}
			return lsr, func(sol leasing.Solution) error {
				return leasing.VerifySteiner(stInst, sol.Leases)
			}
		},
	}

	useReqs := []leasing.ReusableRequest{
		{T: 0, Dur: 3}, {T: 1, Dur: 2}, {T: 2, Dur: 1}, {T: 5, Dur: 4},
		{T: 9, Dur: 0}, {T: 18, Dur: 2}, {T: 33, Dur: 1},
	}
	ruInst, err := leasing.NewReusableInstance(cfg, 2, useReqs)
	if err != nil {
		t.Fatal(err)
	}
	reusable := conformanceCase{
		name:         "reusable",
		domain:       wire.DomainReusable,
		events:       leasing.UseEvents(useReqs),
		wrongPayload: leasing.DayEvent(40),
		fresh: func(t *testing.T, _ *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
			lsr, err := leasing.NewReusableStream(ruInst)
			if err != nil {
				t.Fatal(err)
			}
			return lsr, func(sol leasing.Solution) error {
				return leasing.VerifyReusable(ruInst, sol)
			}
		},
	}
	reusablePred := conformanceCase{
		name:         "reusable-predictive",
		domain:       wire.DomainReusable,
		events:       leasing.UseEvents(useReqs),
		wrongPayload: leasing.ConnectEvent(40, 0, 1),
		fresh: func(t *testing.T, _ *rand.Rand) (leasing.Leaser, func(leasing.Solution) error) {
			lsr, err := leasing.NewPredictiveReusableStream(ruInst, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			return lsr, func(sol leasing.Solution) error {
				return leasing.VerifyReusable(ruInst, sol)
			}
		},
	}

	return []conformanceCase{parking, parkingRand, setcover, setcoverAbsorbed, facility, facilityRounds, deadline, scld, steiner, reusable, reusablePred}
}

// TestLeaserConformance asserts the protocol contract for every domain.
func TestLeaserConformance(t *testing.T) {
	for _, tc := range conformanceCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			lsr, verify := tc.build(t)
			run, err := leasing.Replay(lsr, tc.events)
			if err != nil {
				t.Fatal(err)
			}

			// Incremental costs telescope to the cumulative total.
			total := lsr.Cost().Total()
			if total <= 0 {
				t.Errorf("total cost %v, want > 0", total)
			}
			if diff := math.Abs(run.DecisionCostSum() - total); diff > 1e-6 {
				t.Errorf("decision costs sum to %v, Cost().Total() = %v", run.DecisionCostSum(), total)
			}
			if run.Total() != total {
				t.Errorf("run total %v != leaser total %v", run.Total(), total)
			}

			// The cost curve never decreases (leases are never refunded).
			prev := 0.0
			for i, p := range run.Curve {
				if p.Cost < prev-1e-9 {
					t.Errorf("curve decreases at event %d: %v after %v", i, p.Cost, prev)
				}
				prev = p.Cost
			}

			// Decisions' lease multiset matches the snapshot exactly (sorted
			// into the snapshot's canonical item/type/start order).
			var fromDecisions []leasing.ItemLease
			for _, d := range run.Decisions {
				fromDecisions = append(fromDecisions, d.Leases...)
			}
			sort.Slice(fromDecisions, func(a, b int) bool {
				x, y := fromDecisions[a], fromDecisions[b]
				if x.Item != y.Item {
					return x.Item < y.Item
				}
				if x.K != y.K {
					return x.K < y.K
				}
				return x.Start < y.Start
			})
			sol := lsr.Snapshot()
			if !reflect.DeepEqual(fromDecisions, sol.Leases) {
				t.Errorf("decision leases %v != snapshot leases %v", fromDecisions, sol.Leases)
			}

			// Decisions' assignments, in order, are the snapshot's.
			var assigned []leasing.Assignment
			for _, d := range run.Decisions {
				assigned = append(assigned, d.Assignments...)
			}
			if !slices.Equal(assigned, sol.Assignments) {
				t.Errorf("decision assignments %v != snapshot assignments %v", assigned, sol.Assignments)
			}

			// The snapshot passes the domain's feasibility oracle.
			if err := verify(sol); err != nil {
				t.Errorf("snapshot verification: %v", err)
			}

			// Replays are deterministic: a fresh leaser over the same events
			// yields the identical decision stream.
			lsr2, _ := tc.build(t)
			run2, err := leasing.Replay(lsr2, tc.events)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(run.Decisions, run2.Decisions) {
				t.Error("replay is not deterministic")
			}
			if !reflect.DeepEqual(lsr.Snapshot(), lsr2.Snapshot()) {
				t.Error("snapshots differ across replays")
			}

			// Unsupported payloads are rejected without state damage.
			lsr3, _ := tc.build(t)
			if _, err := lsr3.Observe(tc.wrongPayload); err == nil {
				t.Error("unsupported payload accepted")
			}
		})
	}
}

// TestLeaserEmptySnapshotShape pins the shape of a fresh leaser's
// snapshot: an empty, non-nil lease list in every domain (so the wire
// encodes "leases":[]), and a non-nil assignment list exactly in the
// domains that assign.
func TestLeaserEmptySnapshotShape(t *testing.T) {
	assigns := map[string]bool{wire.DomainFacility: true, wire.DomainReusable: true}
	for _, tc := range conformanceCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			lsr, _ := tc.build(t)
			sol := lsr.Snapshot()
			if sol.Leases == nil || len(sol.Leases) != 0 {
				t.Errorf("leases = %#v, want empty and non-nil", sol.Leases)
			}
			if got := sol.Assignments != nil; got != assigns[tc.domain] || len(sol.Assignments) != 0 {
				t.Errorf("assignments = %#v, want empty and non-nil = %v", sol.Assignments, assigns[tc.domain])
			}
			js, err := json.Marshal(wire.FromStreamSolution(sol))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(js, []byte(`"leases":[]`)) {
				t.Errorf("wire snapshot %s, want \"leases\":[]", js)
			}
		})
	}
}

// TestLeaserRejectsTimeRegression asserts every domain refuses demands
// that move backwards in time.
func TestLeaserRejectsTimeRegression(t *testing.T) {
	for _, tc := range conformanceCases(t) {
		tc := tc
		if len(tc.events) < 2 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			lsr, _ := tc.build(t)
			last := tc.events[len(tc.events)-1]
			if _, err := lsr.Observe(last); err != nil {
				t.Fatalf("priming event: %v", err)
			}
			first := tc.events[0]
			if first.Time >= last.Time {
				t.Skip("stream has no strictly increasing times")
			}
			if _, err := lsr.Observe(first); err == nil {
				t.Error("time regression accepted")
			}
		})
	}
}

// TestLeaserConformanceBinaryRoundTrip locks the binary wire encoding
// to the conformance streams: every domain's events survive an
// encode/decode round trip canonically (a re-encode is byte-identical),
// and a fresh leaser replaying the decoded events produces a run
// byte-identical to one fed the originals.
func TestLeaserConformanceBinaryRoundTrip(t *testing.T) {
	for _, tc := range conformanceCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			enc, err := wire.AppendEventsBinary(nil, tc.events)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := wire.DecodeEventsBinary(enc)
			if err != nil {
				t.Fatal(err)
			}
			re, err := wire.AppendEventsBinary(nil, dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, re) {
				t.Fatal("re-encoding decoded events is not byte-identical")
			}

			lsr, _ := tc.build(t)
			want, err := leasing.Replay(lsr, tc.events)
			if err != nil {
				t.Fatal(err)
			}
			lsr2, _ := tc.build(t)
			got, err := leasing.Replay(lsr2, dec)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Errorf("replay over binary-round-tripped events diverged:\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

// TestConformanceCasesCoverAllWireDomains is the meta-test of the
// conformance suite: every domain registered on the wire must be
// exercised by at least one case above, and no case may claim a domain
// the wire does not register. A ninth domain added to wire.Domains()
// without a conformance case fails here, not silently.
func TestConformanceCasesCoverAllWireDomains(t *testing.T) {
	registered := map[string]bool{}
	for _, d := range wire.Domains() {
		registered[d] = true
	}
	covered := map[string]bool{}
	for _, tc := range conformanceCases(t) {
		if tc.domain == "" {
			t.Errorf("case %q declares no wire domain", tc.name)
			continue
		}
		if !registered[tc.domain] {
			t.Errorf("case %q claims unregistered domain %q", tc.name, tc.domain)
		}
		covered[tc.domain] = true
	}
	for _, d := range wire.Domains() {
		if !covered[d] {
			t.Errorf("wire domain %q has no conformance case", d)
		}
	}
}

// TestReusableCapacityConservation is the suite's property test:
// model-checked against a brute-force occupancy simulator over small
// random streams, the reusable allocator must (1) keep units in use at
// or below C at every event time, (2) return exactly one unit when a
// usage completes — equivalently, admission matches the simulator's
// free-unit count exactly — and (3) produce a snapshot the feasibility
// oracle accepts. Streams are generated from per-trial seeded sources.
func TestReusableCapacityConservation(t *testing.T) {
	cfg := conformanceConfig(t)
	for trial := 0; trial < 60; trial++ {
		rng := freshRand(1000 + int64(trial))
		capacity := 1 + rng.Intn(4)
		n := 1 + rng.Intn(30)
		reqs := make([]leasing.ReusableRequest, 0, n)
		tm := int64(rng.Intn(4))
		for len(reqs) < n {
			reqs = append(reqs, leasing.ReusableRequest{T: tm, Dur: int64(rng.Intn(7))})
			tm += int64(rng.Intn(3))
		}
		inst, err := leasing.NewReusableInstance(cfg, capacity, reqs)
		if err != nil {
			t.Fatal(err)
		}
		lsr, err := leasing.NewReusableStream(inst)
		if err != nil {
			t.Fatal(err)
		}

		// Brute-force simulator: the multiset of end times of active
		// usages. A usage [t, t+dur) is active at t' iff end > t'.
		var active []int64
		for i, r := range reqs {
			now := r.T
			kept := active[:0]
			for _, end := range active {
				if end > now {
					kept = append(kept, end)
				}
			}
			active = kept
			wantAccept := len(active) < capacity

			d, err := lsr.Observe(leasing.UseEvent(r.T, r.Dur))
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Assignments) != 1 {
				t.Fatalf("trial %d request %d: %d assignments", trial, i, len(d.Assignments))
			}
			gotAccept := d.Assignments[0].Item >= 0
			if gotAccept != wantAccept {
				t.Fatalf("trial %d request %d at t=%d: leaser accept=%v, simulator free units=%d/%d",
					trial, i, r.T, gotAccept, capacity-len(active), capacity)
			}
			if gotAccept {
				dur := r.Dur
				if dur < 1 {
					dur = 1
				}
				active = append(active, r.T+dur)
			}
			if len(active) > capacity {
				t.Fatalf("trial %d request %d: %d units in use exceeds capacity %d",
					trial, i, len(active), capacity)
			}
		}
		if err := leasing.VerifyReusable(inst, lsr.Snapshot()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
