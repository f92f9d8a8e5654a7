package main

// The correctness gate. Every tenant's cost, snapshot and processed
// count must equal a single-threaded leasing.Replay of its stream
// through a Leaser built from the tenant's own spec. A mismatch fails
// the run; it is never a metric.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"leasing"
)

// errMismatch marks a divergence from Replay: the run is wrong, not
// merely failed.
var errMismatch = errors.New("output differs from Replay")

// reference is a tenant's expected final state.
type reference struct {
	cost     leasing.CostBreakdown
	snapshot leasing.Solution
	events   int64
}

// replayAll replays every tenant single-threaded — tenants split over
// GOMAXPROCS workers — and returns the references and the Replay time
// per event, summed over tenants.
func replayAll(ts []*tenant) (map[string]reference, time.Duration, error) {
	refs := make([]reference, len(ts))
	took := make([]time.Duration, len(ts))
	errs := make([]error, len(ts))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ts); i += workers {
				refs[i], took[i], errs[i] = replay(ts[i])
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	byName := make(map[string]reference, len(ts))
	var total time.Duration
	var events int
	for i, t := range ts {
		byName[t.name] = refs[i]
		total += took[i]
		events += len(t.events)
	}
	return byName, total / time.Duration(max(events, 1)), nil
}

// replay runs one tenant's stream through a Leaser built from its spec.
func replay(t *tenant) (reference, time.Duration, error) {
	l, err := t.spec.Build()
	if err != nil {
		return reference{}, 0, fmt.Errorf("%s: build: %w", t.name, err)
	}
	t0 := time.Now()
	run, err := leasing.Replay(l, t.events)
	took := time.Since(t0)
	if err != nil {
		return reference{}, 0, fmt.Errorf("%s: replay: %w", t.name, err)
	}
	return reference{cost: run.Final, snapshot: l.Snapshot(), events: int64(len(t.events))}, took, nil
}

// check compares one tenant's served state with its reference.
func (ref reference) check(name string, cost leasing.CostBreakdown, snap leasing.Solution, events int64) error {
	switch {
	case events != ref.events:
		return fmt.Errorf("%w: %s processed %d events, want %d", errMismatch, name, events, ref.events)
	case cost != ref.cost:
		return fmt.Errorf("%w: %s cost %+v, want %+v", errMismatch, name, cost, ref.cost)
	case !reflect.DeepEqual(snap, ref.snapshot):
		return fmt.Errorf("%w: %s snapshot differs", errMismatch, name)
	}
	return nil
}

// verifyRemote checks every tenant through the service's own read
// endpoints.
func verifyRemote(ctx context.Context, cli remote, ts []*tenant, refs map[string]reference) error {
	var errs []error
	for _, t := range ts {
		cost, err := cli.Cost(ctx, t.name)
		if err != nil {
			return fmt.Errorf("cost %s: %w", t.name, err)
		}
		snap, err := cli.Snapshot(ctx, t.name)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", t.name, err)
		}
		n, err := cli.Processed(ctx, t.name)
		if err != nil {
			return fmt.Errorf("processed %s: %w", t.name, err)
		}
		if cost.Total != cost.Stream().Total() {
			errs = append(errs, fmt.Errorf("%w: %s cost total %v disagrees with its parts", errMismatch, t.name, cost.Total))
		}
		errs = append(errs, refs[t.name].check(t.name, cost.Stream(), snap.Stream(), n))
	}
	return errors.Join(errs...)
}

// verifyEngine checks tenants on an in-process (recovered) engine.
func verifyEngine(eng *leasing.Engine, ts []*tenant, refs map[string]reference) error {
	var errs []error
	for _, t := range ts {
		cost, err := eng.Cost(t.name)
		if err != nil {
			return fmt.Errorf("cost %s: %w", t.name, err)
		}
		snap, err := eng.Snapshot(t.name)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", t.name, err)
		}
		n, err := eng.Events(t.name)
		if err != nil {
			return fmt.Errorf("events %s: %w", t.name, err)
		}
		errs = append(errs, refs[t.name].check(t.name, cost, snap, n))
	}
	return errors.Join(errs...)
}
