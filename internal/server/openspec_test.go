package server_test

// Open specs without their demand stream. A served session reads its
// demands only from submitted events, so the open endpoint validates a
// stream the caller sends and otherwise ignores it: a durable engine
// logs the spec's WithoutStream form, so an open record is the size of
// the instance however long the stream. (A log written with full
// specs, as earlier builds wrote it, recovers unchanged: that is
// TestRecoveryParityAllDomains.)

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"leasing/internal/engine"
	"leasing/internal/server"
	"leasing/internal/wal"
	"leasing/internal/wire"
)

// streamCases returns the remote cases whose spec carries a demand
// stream: set cover, SCLD, facility and Steiner.
func streamCases(t *testing.T) []remoteCase {
	t.Helper()
	var out []remoteCase
	for _, tc := range remoteCases(t) {
		if bare := tc.spec.WithoutStream(); !bytes.Equal(mustJSON(t, bare), mustJSON(t, tc.spec)) {
			out = append(out, tc)
		}
	}
	if len(out) != 4 {
		t.Fatalf("%d remote cases carry a demand stream, want 4", len(out))
	}
	return out
}

// TestOpenValidatesSentStream: a full spec whose stream is out of order
// is still refused with 400 bad_request, though the session would never
// read it.
func TestOpenValidatesSentStream(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1}, server.Config{})
	for _, tc := range streamCases(t) {
		spec := tc.spec
		switch {
		case spec.SetCover != nil:
			sp := *spec.SetCover
			sp.Arrivals = []wire.ElementArrival{{T: 5, Elem: 0, P: 1}, {T: 2, Elem: 1, P: 1}}
			spec.SetCover = &sp
		case spec.SCLD != nil:
			sp := *spec.SCLD
			sp.Arrivals = []wire.SCLDArrival{{T: 5, Elem: 0}, {T: 2, Elem: 1}}
			spec.SCLD = &sp
		case spec.Steiner != nil:
			sp := *spec.Steiner
			sp.Requests = []wire.ConnectRequest{{T: 5, S: 0, U: 1}, {T: 2, S: 1, U: 2}}
			spec.Steiner = &sp
		default:
			continue // a batch's index is its step, so batches cannot be out of order
		}
		status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/" + tc.name,
			contentType: "application/json", body: mustJSON(t, spec)})
		if status != http.StatusBadRequest || errCode(t, body) != wire.CodeBadRequest {
			t.Errorf("%s: out-of-order stream: status %d body %s, want 400 bad_request", tc.name, status, body)
		}
	}
}

// TestDurableOpenLogsSpecWithoutStream: each stream domain is opened
// over HTTP twice on a durable engine, once with its full spec and once
// without the stream. Both open records hold the same bytes, the
// stream-less canonical spec, and both sessions recover byte-identical
// to Replay.
func TestDurableOpenLogsSpecWithoutStream(t *testing.T) {
	cases := streamCases(t)
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 2, WAL: wlog})
	ts := httptest.NewServer(server.New(eng, server.Config{}))
	for _, tc := range cases {
		for tenant, spec := range map[string]wire.OpenRequest{tc.name + "-full": tc.spec, tc.name + "-bare": tc.spec.WithoutStream()} {
			if status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/" + tenant,
				contentType: "application/json", body: mustJSON(t, spec)}); status != http.StatusCreated {
				t.Fatalf("open %s: status %d body %s", tenant, status, body)
			}
			if err := eng.SubmitBatch(tenant, tc.events); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	if wlog, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	logged := map[string][]byte{}
	for _, s := range wlog.Recover() {
		logged[s.Tenant] = s.Spec
	}
	for _, tc := range cases {
		full, bare := logged[tc.name+"-full"], logged[tc.name+"-bare"]
		if want := specBytes(t, tc.spec.WithoutStream()); !bytes.Equal(full, want) || !bytes.Equal(bare, want) {
			t.Errorf("%s: open records of %d B (full spec) and %d B (no stream), want both the %d B stream-less spec",
				tc.name, len(full), len(bare), len(want))
		}
	}
	rec := recoverEngine(t, wlog, engine.Config{Shards: 3, RecordRuns: true})
	defer rec.Close()
	for _, tc := range cases {
		for _, tenant := range []string{tc.name + "-full", tc.name + "-bare"} {
			named := tc
			named.name = tenant
			verifyRecovered(t, rec, named, tc.events, "stream-less open record")
		}
	}
}

// TestUnboundedSlackFailsSession: a window whose slack overflows the
// time line or names more leases than deadline.MaxCandidates fails its
// session with that error, before the algorithm reads any state. The
// daemon keeps serving its other tenants, and recovery ends each failed
// session at the same processed count with the same error.
func TestUnboundedSlackFailsSession(t *testing.T) {
	var scld wire.OpenRequest
	for _, tc := range remoteCases(t) {
		if tc.name == "scld" {
			scld = tc.spec.WithoutStream()
		}
	}
	deadline := wire.OpenRequest{Domain: wire.DomainDeadline, Types: scld.Types}
	window := func(tm, d int64) wire.Event { return wire.Event{Time: tm, Kind: wire.KindWindow, D: d} }
	elemWindow := func(tm, d int64) wire.Event {
		return wire.Event{Time: tm, Kind: wire.KindElementWindow, Elem: 1, D: d}
	}
	tenants := []struct {
		name, wantErr string
		spec          wire.OpenRequest
		events        []wire.Event
	}{
		{"deadline-huge", "candidate leases", deadline,
			[]wire.Event{window(1, 3), window(4, 0), window(10, 1<<40), window(11, 2)}},
		{"deadline-end", "candidate leases", deadline,
			[]wire.Event{window(1, 3), window(10, math.MaxInt64-10), window(11, 2)}},
		{"deadline-overflow", "largest time", deadline,
			[]wire.Event{window(1, 3), window(10, math.MaxInt64-9)}},
		{"scld-huge", "candidate leases", scld,
			[]wire.Event{elemWindow(0, 2), elemWindow(3, 1<<40), elemWindow(4, 1)}},
		{"scld-overflow", "largest time", scld,
			[]wire.Event{elemWindow(0, 2), elemWindow(3, math.MaxInt64)}},
	}

	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Shards: 2}
	live := cfg
	live.WAL = wlog
	eng := engine.New(live)
	ts := httptest.NewServer(server.New(eng, server.Config{}))
	for _, tn := range tenants {
		if status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/" + tn.name,
			contentType: "application/json", body: mustJSON(t, tn.spec)}); status != http.StatusCreated {
			t.Fatalf("open %s: status %d body %s", tn.name, status, body)
		}
		if status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/" + tn.name + "/events",
			contentType: "application/json", body: mustJSON(t, tn.events)}); status != http.StatusOK {
			t.Fatalf("submit %s: status %d body %s", tn.name, status, body)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		events int64
		err    string
	}
	read := func(e *engine.Engine, tenant string) outcome {
		n, err := e.Events(tenant)
		if err == nil {
			return outcome{events: n}
		}
		return outcome{events: n, err: err.Error()}
	}
	want := map[string]outcome{}
	for _, tn := range tenants {
		want[tn.name] = read(eng, tn.name)
		if !strings.Contains(want[tn.name].err, tn.wantErr) {
			t.Errorf("%s: live session ended at %+v, want an error about %q", tn.name, want[tn.name], tn.wantErr)
		}
	}
	if status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/after",
		contentType: "application/json", body: mustJSON(t, parkingOpen())}); status != http.StatusCreated {
		t.Fatalf("open after the failures: status %d body %s", status, body)
	}
	if status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/after/events",
		contentType: "application/json", body: mustJSON(t, dayEvents(1, 2, 3))}); status != http.StatusOK {
		t.Fatalf("submit after the failures: status %d body %s", status, body)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := read(eng, "after"); got != (outcome{events: 3}) {
		t.Errorf("a tenant opened after the failures ended at %+v, want 3 events and no error", got)
	}
	want["after"] = outcome{events: 3}
	ts.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	if wlog, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	rec := recoverEngine(t, wlog, cfg)
	defer rec.Close()
	for tenant, w := range want {
		if got := read(rec, tenant); got != w {
			t.Errorf("%s: live session ended at %+v, recovered one at %+v", tenant, w, got)
		}
	}
}
