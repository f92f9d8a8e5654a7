package engine_test

// Guards the O(1) publish: a processed batch publishes only the event
// count, the cost and the run headers, and a Snapshot is built only when
// one is read, on the shard goroutine, behind the tenant's queued work.

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"leasing"
	"leasing/internal/engine"
	"leasing/internal/stream"
	"leasing/internal/workload"
)

// countingLeaser counts Snapshot calls and holds every Observe until
// gate is closed, so work can be queued behind a pinned shard.
type countingLeaser struct {
	stream.Leaser
	gate      chan struct{}
	snapshots atomic.Int64
}

func (l *countingLeaser) Observe(ev stream.Event) (stream.Decision, error) {
	<-l.gate
	return l.Leaser.Observe(ev)
}

func (l *countingLeaser) Snapshot() stream.Solution {
	l.snapshots.Add(1)
	return l.Leaser.Snapshot()
}

func TestEngineSnapshotOnDemand(t *testing.T) {
	const events, chunk = 250, 5 // 50 batches
	days := workload.DemandDays(rand.New(rand.NewSource(5)), 600, 0.6)
	if len(days) < events {
		t.Fatalf("workload has %d days, want at least %d", len(days), events)
	}
	evs := leasing.DayEvents(days[:events])
	ref := parkingLeaser(t)
	if _, err := stream.Replay(ref, evs); err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.Config{Shards: 1, BatchSize: 8, QueueDepth: 64, RecordRuns: true})
	defer eng.Close()
	l := &countingLeaser{Leaser: parkingLeaser(t), gate: make(chan struct{})}
	if err := eng.Open("a", l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(evs); i += chunk {
		if err := eng.SubmitBatch("a", evs[i:i+chunk]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Cost("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Events("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Result("a"); err != nil {
		t.Fatal(err)
	}
	if n := l.snapshots.Load(); n != 0 {
		t.Fatalf("%d Snapshot calls before any snapshot read, want 0", n)
	}

	// Release the shard and read at once: the read queues behind all
	// 50 batches, so it covers every event without a Flush.
	close(l.gate)
	got, err := eng.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("un-flushed snapshot (%d leases) differs from Replay's (%d leases)", len(got.Leases), len(want.Leases))
	}
	// The read also republished the tenant's O(1) state.
	if n, err := eng.Events("a"); err != nil || n != events {
		t.Errorf("events after snapshot = %d (err %v), want %d", n, err, events)
	}

	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Result("a"); err != nil {
		t.Fatal(err)
	}
	if n := l.snapshots.Load(); n != 1 {
		t.Errorf("%d Snapshot calls for one snapshot read, want 1", n)
	}
}
