package client

// Schedule-pinning tests for the jittered retry backoff: the whole
// point of seeding the jitter is that a schedule is reproducible, so
// these tests assert the exact delays a known seed produces and the
// structural invariants every seed must keep.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"leasing/internal/wire"
)

// TestBackoffSchedulePinned: seed 7 over a 2ms base produces exactly
// this delay sequence — any change to the jitter algorithm, the cap or
// the doubling shows up here.
func TestBackoffSchedulePinned(t *testing.T) {
	want := []time.Duration{
		1272694 * time.Nanosecond,
		2667317 * time.Nanosecond,
		4779064 * time.Nanosecond,
		12055130 * time.Nanosecond,
		18424806 * time.Nanosecond,
		53535106 * time.Nanosecond,
		69167434 * time.Nanosecond,
		107736932 * time.Nanosecond,
		97607390 * time.Nanosecond,
		103559846 * time.Nanosecond,
	}
	bo := newBackoff(2*time.Millisecond, 7)
	for i, w := range want {
		if got := bo.wait(); got != w {
			t.Fatalf("wait %d = %v, want %v", i, got, w)
		}
	}
}

// TestBackoffInvariants: every delay lies in [step/2, step], the step
// doubles up to 64x the base and no further, and the same seed replays
// the same schedule while different seeds diverge.
func TestBackoffInvariants(t *testing.T) {
	const base = 2 * time.Millisecond
	a, b := newBackoff(base, 41), newBackoff(base, 41)
	other := newBackoff(base, 42)
	step, diverged := base, false
	for i := 0; i < 20; i++ {
		wa, wb, wo := a.wait(), b.wait(), other.wait()
		if wa != wb {
			t.Fatalf("wait %d: same seed diverged (%v vs %v)", i, wa, wb)
		}
		if wa != wo {
			diverged = true
		}
		if wa < step/2 || wa > step {
			t.Fatalf("wait %d = %v outside [%v, %v]", i, wa, step/2, step)
		}
		if step < backoffCap*base {
			step *= 2
		}
	}
	if step != backoffCap*base {
		t.Fatalf("final step %v, want capped at %v", step, backoffCap*base)
	}
	if !diverged {
		t.Fatal("seeds 41 and 42 produced identical schedules")
	}
}

// TestBackoffReset: reset rewinds the exponential step to the base but
// keeps consuming the same seeded stream, so a schedule stays a pure
// function of the seed and the call sequence.
func TestBackoffReset(t *testing.T) {
	const base = 2 * time.Millisecond
	bo := newBackoff(base, 9)
	for i := 0; i < 5; i++ {
		bo.wait()
	}
	bo.reset()
	if w := bo.wait(); w < base/2 || w > base {
		t.Fatalf("post-reset wait %v outside [%v, %v]", w, base/2, base)
	}
}

// TestTenantSeedSpreads: different tenants under one client seed get
// different effective seeds, and the mix is stable.
func TestTenantSeedSpreads(t *testing.T) {
	if tenantSeed(1, "tenant-a") == tenantSeed(1, "tenant-b") {
		t.Fatal("distinct tenants share a seed")
	}
	if tenantSeed(1, "tenant-a") != tenantSeed(1, "tenant-a") {
		t.Fatal("tenantSeed is not stable")
	}
	if tenantSeed(1, "tenant-a") == tenantSeed(2, "tenant-a") {
		t.Fatal("client seed does not mix in")
	}
}

// TestSubmitSeedsBackoffOnlyWhenItWaits: a schedule builds its jitter
// source on its first wait, so a submit answered 200 builds none, and
// one that meets a 429 builds exactly one.
func TestSubmitSeedsBackoffOnlyWhenItWaits(t *testing.T) {
	built := 0
	newSource = func(seed int64) rand.Source {
		built++
		return rand.NewSource(seed)
	}
	defer func() { newSource = rand.NewSource }()

	var backpressure atomic.Int32 // 429s left to answer before accepting
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var evs []wire.Event
		if err := json.NewDecoder(r.Body).Decode(&evs); err != nil {
			t.Errorf("decode submit body: %v", err)
		}
		if backpressure.Load() > 0 {
			backpressure.Add(-1)
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(&wire.Error{Code: wire.CodeBackpressure, Message: "queue full"})
			return
		}
		json.NewEncoder(w).Encode(wire.SubmitResponse{Accepted: len(evs)})
	}))
	defer srv.Close()
	c := New(srv.URL, Options{RetryWait: time.Microsecond})
	evs := []wire.Event{{Kind: wire.KindDay, Time: 1}, {Kind: wire.KindDay, Time: 2}}

	for i := 0; i < 3; i++ {
		if n, err := c.Submit(context.Background(), "t", evs); err != nil || n != len(evs) {
			t.Fatalf("submit %d = %d, %v", i, n, err)
		}
	}
	if built != 0 {
		t.Fatalf("three submits answered 200 built %d jitter sources, want 0", built)
	}
	backpressure.Store(1)
	if n, err := c.Submit(context.Background(), "t", evs); err != nil || n != len(evs) {
		t.Fatalf("submit after a 429 = %d, %v", n, err)
	}
	if built != 1 {
		t.Fatalf("a submit that waited once built %d jitter sources, want 1", built)
	}
}
