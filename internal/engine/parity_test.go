package engine_test

// Determinism anchor of the engine: for any fixed tenant, the engine's
// recorded output must be byte-identical to a single-threaded Replay of
// that tenant's events — for ANY shard count and ANY batch size, and no
// matter how submission is chunked or interleaved with other tenants.
// The tenant cases mirror the public conformance suite: all eight domain
// leasers, built deterministically so a fresh construction replays the
// same decisions.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"leasing"
	"leasing/internal/engine"
	"leasing/internal/stream"
	"leasing/internal/workload"
)

// tenantCase is one domain workload: a fixed event stream plus a factory
// returning a fresh, deterministically-constructed leaser per call.
type tenantCase struct {
	name   string
	events []stream.Event
	fresh  func() (stream.Leaser, error)
}

func parityConfig(t *testing.T) *leasing.LeaseConfig {
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

// tenantCases builds one case per domain with workload-generated streams
// sized to span many engine batches.
func tenantCases(t *testing.T) []tenantCase {
	t.Helper()
	cfg := parityConfig(t)
	var cases []tenantCase

	days := workload.DemandDays(rand.New(rand.NewSource(1)), 200, 0.3)
	cases = append(cases, tenantCase{
		name:   "parking",
		events: leasing.DayEvents(days),
		fresh: func() (stream.Leaser, error) {
			alg, err := leasing.NewDeterministicParkingPermit(cfg)
			if err != nil {
				return nil, err
			}
			return leasing.NewParkingStream(alg), nil
		},
	})
	cases = append(cases, tenantCase{
		name:   "parking-randomized",
		events: leasing.DayEvents(days),
		fresh: func() (stream.Leaser, error) {
			alg, err := leasing.NewRandomizedParkingPermit(cfg, rand.New(rand.NewSource(11)))
			if err != nil {
				return nil, err
			}
			return leasing.NewParkingStream(alg), nil
		},
	})

	clients := workload.DeadlineStream(rand.New(rand.NewSource(2)), 150, 0.4, 9)
	cases = append(cases, tenantCase{
		name:   "deadline",
		events: leasing.WindowEvents(clients),
		fresh: func() (stream.Leaser, error) {
			return leasing.NewDeadlineStream(cfg)
		},
	})

	scRng := rand.New(rand.NewSource(3))
	zipf, err := workload.NewZipf(scRng, 12, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.ElementStream(scRng, 120, 0.5,
		zipf.Draw, func() int { return 1 + scRng.Intn(2) })
	fam, err := leasing.RandomSetFamily(rand.New(rand.NewSource(4)), 12, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	costs := leasing.RandomSetCosts(rand.New(rand.NewSource(5)), 8, cfg, 0.5)
	scInst, err := leasing.NewSetCoverInstance(fam, cfg, costs, arrivals, leasing.PerArrival)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tenantCase{
		name:   "setcover",
		events: leasing.ElementEvents(arrivals),
		fresh: func() (stream.Leaser, error) {
			return leasing.NewSetCoverStream(scInst, rand.New(rand.NewSource(7)))
		},
	})

	facRng := rand.New(rand.NewSource(6))
	sites := []leasing.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 8}}
	batches := make([][]leasing.Point, 40)
	for i := range batches {
		for c := facRng.Intn(3); c > 0; c-- {
			s := sites[facRng.Intn(len(sites))]
			batches[i] = append(batches[i], leasing.Point{
				X: s.X + facRng.Float64()*2, Y: s.Y + facRng.Float64()*2})
		}
	}
	facInst, err := leasing.NewFacilityInstance(cfg, sites,
		[][]float64{{1, 2, 5}, {1, 2, 5}, {1.5, 3, 6}}, batches)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tenantCase{
		name:   "facility",
		events: leasing.BatchEvents(batches),
		fresh: func() (stream.Leaser, error) {
			return leasing.NewFacilityStream(facInst)
		},
	})

	scldFam, err := leasing.NewSetFamily(4, [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	scldRng := rand.New(rand.NewSource(8))
	var scldArrivals []leasing.SCLDArrival
	for tm := int64(0); tm < 80; tm++ {
		if scldRng.Float64() < 0.4 {
			scldArrivals = append(scldArrivals, leasing.SCLDArrival{
				T: tm, Elem: scldRng.Intn(4), D: int64(scldRng.Intn(5))})
		}
	}
	scldInst, err := leasing.NewSCLDInstance(scldFam, cfg,
		[][]float64{{1, 2, 4}, {1, 2, 4}, {1, 2, 4}, {1, 2, 4}}, scldArrivals)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tenantCase{
		name:   "scld",
		events: leasing.ElementWindowEvents(scldArrivals),
		fresh: func() (stream.Leaser, error) {
			return leasing.NewSCLDStream(scldInst, rand.New(rand.NewSource(9)))
		},
	})

	g, err := leasing.RandomConnectedGraph(rand.New(rand.NewSource(10)), 12, 24, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	connects, err := workload.ConnectStream(rand.New(rand.NewSource(12)), 90, 0.5, 12)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]leasing.SteinerRequest, len(connects))
	for i, c := range connects {
		reqs[i] = leasing.SteinerRequest{Time: c.T, S: c.S, T: c.U}
	}
	stInst, err := leasing.NewSteinerInstance(g, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tenantCase{
		name:   "steiner",
		events: leasing.ConnectEvents(reqs),
		fresh: func() (stream.Leaser, error) {
			return leasing.NewSteinerStream(stInst)
		},
	})

	ruRng := rand.New(rand.NewSource(13))
	var ruReqs []leasing.ReusableRequest
	for tm := int64(0); tm < 160; tm++ {
		if ruRng.Float64() < 0.45 {
			ruReqs = append(ruReqs, leasing.ReusableRequest{T: tm, Dur: int64(ruRng.Intn(10))})
		}
	}
	ruInst, err := leasing.NewReusableInstance(cfg, 2, ruReqs)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tenantCase{
		name:   "reusable",
		events: leasing.UseEvents(ruReqs),
		fresh: func() (stream.Leaser, error) {
			return leasing.NewReusableStream(ruInst)
		},
	})

	return cases
}

// TestEngineParityWithReplay is the table-driven anchor: shard counts
// {1, 4, 16} crossed with batch sizes {1, 8, 64}, every domain tenant
// submitted concurrently in uneven chunks, then each tenant's Result,
// Cost, Events and Snapshot compared against a fresh single-threaded
// Replay — including a byte-level comparison of the formatted runs.
func TestEngineParityWithReplay(t *testing.T) {
	cases := tenantCases(t)
	for _, shards := range []int{1, 4, 16} {
		for _, batch := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(t *testing.T) {
				eng := engine.New(engine.Config{
					Shards:     shards,
					BatchSize:  batch,
					QueueDepth: 4, // tiny queue so backpressure engages
					RecordRuns: true,
				})
				defer eng.Close()

				for _, tc := range cases {
					lsr, err := tc.fresh()
					if err != nil {
						t.Fatalf("%s: fresh: %v", tc.name, err)
					}
					if err := eng.Open(tc.name, lsr); err != nil {
						t.Fatalf("%s: open: %v", tc.name, err)
					}
				}

				// One producer per tenant, chunk sizes cycling 1..5 so
				// batch boundaries never align with event boundaries.
				var wg sync.WaitGroup
				for i, tc := range cases {
					wg.Add(1)
					go func(i int, tc tenantCase) {
						defer wg.Done()
						evs := tc.events
						for n := 0; len(evs) > 0; n++ {
							chunk := 1 + (i+n)%5
							if chunk > len(evs) {
								chunk = len(evs)
							}
							if err := eng.SubmitBatch(tc.name, evs[:chunk]); err != nil {
								t.Errorf("%s: submit: %v", tc.name, err)
								return
							}
							evs = evs[chunk:]
						}
					}(i, tc)
				}
				wg.Wait()
				if err := eng.Flush(); err != nil {
					t.Fatal(err)
				}

				snaps := make(map[string]stream.Solution, len(cases))
				for _, tc := range cases {
					got, err := eng.Result(tc.name)
					if err != nil {
						t.Fatalf("%s: result: %v", tc.name, err)
					}
					ref, err := tc.fresh()
					if err != nil {
						t.Fatal(err)
					}
					want, err := stream.Replay(ref, tc.events)
					if err != nil {
						t.Fatalf("%s: replay: %v", tc.name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: engine run differs from Replay", tc.name)
					}
					gb, wb := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want)
					if gb != wb {
						t.Errorf("%s: formatted runs not byte-identical:\nengine %s\nreplay %s",
							tc.name, gb, wb)
					}
					cost, err := eng.Cost(tc.name)
					if err != nil {
						t.Fatal(err)
					}
					if cost != want.Final {
						t.Errorf("%s: cached cost %+v != replay final %+v", tc.name, cost, want.Final)
					}
					n, err := eng.Events(tc.name)
					if err != nil {
						t.Fatal(err)
					}
					if n != int64(len(tc.events)) {
						t.Errorf("%s: engine processed %d events, want %d", tc.name, n, len(tc.events))
					}
					sol, err := eng.Snapshot(tc.name)
					if err != nil {
						t.Fatal(err)
					}
					snaps[tc.name] = ref.Snapshot()
					if !reflect.DeepEqual(sol, snaps[tc.name]) {
						t.Errorf("%s: snapshot differs from replay snapshot", tc.name)
					}
				}

				// Reads stay valid after a graceful close.
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Cost(cases[0].name); err != nil {
					t.Errorf("cost after close: %v", err)
				}
				readSnapshotsConcurrently(t, eng, snaps)
			})
		}
	}
}

// readSnapshotsConcurrently reads every tenant's Snapshot from two
// goroutines at once and compares each read with want.
func readSnapshotsConcurrently(t *testing.T, eng *engine.Engine, want map[string]stream.Solution) {
	t.Helper()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tenant, w := range want {
				got, err := eng.Snapshot(tenant)
				if err != nil {
					t.Errorf("%s: snapshot: %v", tenant, err)
				} else if !reflect.DeepEqual(got, w) {
					t.Errorf("%s: snapshot differs from replay snapshot", tenant)
				}
			}
		}()
	}
	wg.Wait()
}
