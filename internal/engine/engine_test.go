package engine_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"leasing"
	"leasing/internal/engine"
	"leasing/internal/stream"
)

func parkingLeaser(t *testing.T) stream.Leaser {
	t.Helper()
	cfg := parityConfig(t)
	alg, err := leasing.NewDeterministicParkingPermit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return leasing.NewParkingStream(alg)
}

func TestEngineOpenErrors(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	defer eng.Close()

	if err := eng.Open("a", nil); err == nil {
		t.Error("nil leaser accepted")
	}
	if err := eng.Open("a", parkingLeaser(t)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Open("a", parkingLeaser(t)); !errors.Is(err, engine.ErrDuplicateTenant) {
		t.Errorf("duplicate open: got %v, want ErrDuplicateTenant", err)
	}
}

func TestEngineUnknownTenant(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	defer eng.Close()

	if _, err := eng.Cost("ghost"); !errors.Is(err, engine.ErrUnknownTenant) {
		t.Errorf("Cost: got %v, want ErrUnknownTenant", err)
	}
	if _, err := eng.Snapshot("ghost"); !errors.Is(err, engine.ErrUnknownTenant) {
		t.Errorf("Snapshot: got %v, want ErrUnknownTenant", err)
	}
	if _, err := eng.Events("ghost"); !errors.Is(err, engine.ErrUnknownTenant) {
		t.Errorf("Events: got %v, want ErrUnknownTenant", err)
	}

	// Events for a tenant that was never opened are dropped and counted.
	if err := eng.Submit("ghost", leasing.DayEvent(0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", m.Dropped)
	}
}

func TestEngineClosed(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	if err := eng.Open("a", parkingLeaser(t)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("a", leasing.DayEvent(0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := eng.Submit("a", leasing.DayEvent(1)); !errors.Is(err, engine.ErrClosed) {
		t.Errorf("submit after close: got %v, want ErrClosed", err)
	}
	if err := eng.Open("b", parkingLeaser(t)); !errors.Is(err, engine.ErrClosed) {
		t.Errorf("open after close: got %v, want ErrClosed", err)
	}
	if err := eng.Flush(); !errors.Is(err, engine.ErrClosed) {
		t.Errorf("flush after close: got %v, want ErrClosed", err)
	}
	// Close drained the queued event; cached reads survive.
	cost, err := eng.Cost("a")
	if err != nil {
		t.Fatal(err)
	}
	if cost.Total() <= 0 {
		t.Errorf("cost after close = %v, want > 0", cost.Total())
	}
	// So do snapshot reads, which read the drained leaser.
	ref := parkingLeaser(t)
	if _, err := stream.Replay(ref, []stream.Event{leasing.DayEvent(0)}); err != nil {
		t.Fatal(err)
	}
	readSnapshotsConcurrently(t, eng, map[string]stream.Solution{"a": ref.Snapshot()})
}

func TestEngineSessionFailure(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	defer eng.Close()
	if err := eng.Open("a", parkingLeaser(t)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("a", leasing.DayEvent(3)); err != nil {
		t.Fatal(err)
	}
	// A payload the parking leaser rejects fails the session...
	if err := eng.Submit("a", leasing.ConnectEvent(5, 0, 1)); err != nil {
		t.Fatal(err)
	}
	// ...and later events are dropped, not processed.
	if err := eng.Submit("a", leasing.DayEvent(9)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Cost("a"); err == nil {
		t.Error("Cost of failed session returned no error")
	}
	if _, err := eng.Snapshot("a"); err == nil {
		t.Error("Snapshot of failed session returned no error")
	}
	m := eng.Metrics()
	if m.Events != 1 {
		t.Errorf("events = %d, want 1 (only the pre-failure event)", m.Events)
	}
	if m.Dropped != 2 {
		t.Errorf("dropped = %d, want 2 (the failing event and its successor)", m.Dropped)
	}
	// The pre-failure state is still readable alongside the error.
	n, err := eng.Events("a")
	if err == nil {
		t.Error("Events of failed session returned no error")
	}
	if n != 1 {
		t.Errorf("events processed before failure = %d, want 1", n)
	}
}

// TestEngineCloseRacesWriters closes the engine while producers are
// mid-flight: every Submit must either land before the drain or return
// ErrClosed — never hang or panic. (Run under -race in CI.)
func TestEngineCloseRacesWriters(t *testing.T) {
	for round := 0; round < 20; round++ {
		eng := engine.New(engine.Config{Shards: 2, QueueDepth: 2, BatchSize: 4})
		if err := eng.Open("a", parkingLeaser(t)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for d := int64(0); d < 50; d++ {
					if err := eng.Submit("a", leasing.DayEvent(d)); errors.Is(err, engine.ErrClosed) {
						return
					} else if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}()
		}
		go eng.Close()
		wg.Wait()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); !errors.Is(err, engine.ErrClosed) {
			t.Errorf("flush after close: got %v, want ErrClosed", err)
		}
	}
}

func TestEngineResultRequiresRecording(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 1})
	defer eng.Close()
	if err := eng.Open("a", parkingLeaser(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Result("a"); !errors.Is(err, engine.ErrNotRecording) {
		t.Errorf("got %v, want ErrNotRecording", err)
	}
}

func TestEngineMetrics(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 4, BatchSize: 8})
	defer eng.Close()

	days := []int64{0, 1, 2, 3, 9, 17}
	tenants := []string{"alpha", "beta", "gamma"}
	var wantCost float64
	for _, tenant := range tenants {
		lsr := parkingLeaser(t)
		if err := eng.Open(tenant, lsr); err != nil {
			t.Fatal(err)
		}
		ref := parkingLeaser(t)
		run, err := stream.Replay(ref, leasing.DayEvents(days))
		if err != nil {
			t.Fatal(err)
		}
		wantCost += run.Total()
	}
	for _, tenant := range tenants {
		if err := eng.SubmitBatch(tenant, leasing.DayEvents(days)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.Sessions != len(tenants) {
		t.Errorf("sessions = %d, want %d", m.Sessions, len(tenants))
	}
	if want := int64(len(tenants) * len(days)); m.Events != want {
		t.Errorf("events = %d, want %d", m.Events, want)
	}
	if m.Batches == 0 {
		t.Error("batches = 0, want > 0")
	}
	if math.Abs(m.Cost-wantCost) > 1e-9 {
		t.Errorf("metrics cost = %v, want %v", m.Cost, wantCost)
	}
	if len(m.Shards) != 4 {
		t.Errorf("shard samples = %d, want 4", len(m.Shards))
	}
}

// TestEngineMetricsCostIgnoresInterleaving: the same per-tenant streams
// submitted in two inter-tenant orders must report bit-identical
// Metrics costs. The costs are chosen so that adding every decision in
// apply order gives different floats: next to 1e16 a cost of 1 is
// absorbed, so the small tenant's days count only when they come first.
func TestEngineMetricsCostIgnoresInterleaving(t *testing.T) {
	perDay := func(cost float64) stream.Leaser {
		cfg, err := leasing.NewLeaseConfig(leasing.LeaseType{Length: 1, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		alg, err := leasing.NewDeterministicParkingPermit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return leasing.NewParkingStream(alg)
	}
	tenants := map[string]float64{"big": 1e16, "small": 1}
	days := map[string][]int64{"big": {0}, "small": {0, 1, 2, 3}}
	run := func(order []string) (cost, applyOrderSum float64) {
		eng := engine.New(engine.Config{Shards: 1, BatchSize: 1})
		defer eng.Close()
		for _, tenant := range order {
			if err := eng.Open(tenant, perDay(tenants[tenant])); err != nil {
				t.Fatal(err)
			}
		}
		for _, tenant := range order {
			for _, ev := range leasing.DayEvents(days[tenant]) {
				if err := eng.SubmitBatch(tenant, []stream.Event{ev}); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := stream.Replay(perDay(tenants[tenant]), leasing.DayEvents(days[tenant]))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range ref.Decisions {
				applyOrderSum += d.Cost
			}
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		return eng.Metrics().Cost, applyOrderSum
	}
	smallFirst, naiveSmallFirst := run([]string{"small", "big"})
	bigFirst, naiveBigFirst := run([]string{"big", "small"})
	if naiveSmallFirst == naiveBigFirst {
		t.Fatalf("apply-order sums agree (%v); the costs do not expose the summation order", naiveSmallFirst)
	}
	if math.Float64bits(smallFirst) != math.Float64bits(bigFirst) {
		t.Errorf("metrics cost depends on submission order: %v small first, %v big first", smallFirst, bigFirst)
	}
	if want := 1e16 + 4; smallFirst != want {
		t.Errorf("metrics cost = %v, want %v (per-tenant totals added in name order)", smallFirst, want)
	}
}
