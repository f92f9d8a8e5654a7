package server_test

// Recovery parity anchor: for every domain leaser, a session logged by
// a durable engine and rebuilt from the write-ahead log must end
// byte-identical to a single-threaded stream.Replay of its full logged
// history — across shard counts, batch sizes and fsync settings, with
// the recovering engine sized differently from the logging one, and
// with torn or corrupted tail records truncated rather than replayed.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leasing/internal/engine"
	"leasing/internal/facility"
	"leasing/internal/lease"
	"leasing/internal/metric"
	"leasing/internal/server"
	"leasing/internal/stream"
	"leasing/internal/wal"
	"leasing/internal/wire"
)

// specBytes renders the canonical logged spec, as the server does on
// open.
func specBytes(t *testing.T, spec wire.OpenRequest) []byte {
	t.Helper()
	b, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recoverEngine rebuilds an engine from the log the way cmd/leased
// does on boot: unmarshal each logged spec, Build the algorithm, and
// Restore the histories.
func recoverEngine(t *testing.T, wlog *wal.Log, cfg engine.Config) *engine.Engine {
	t.Helper()
	cfg.WAL = wlog
	eng := engine.New(cfg)
	sessions := wlog.Recover()
	restored := make([]engine.Restored, len(sessions))
	for i, s := range sessions {
		var spec wire.OpenRequest
		if err := json.Unmarshal(s.Spec, &spec); err != nil {
			t.Fatalf("recover %s: decode spec: %v", s.Tenant, err)
		}
		lsr, err := spec.Build()
		if err != nil {
			t.Fatalf("recover %s: build: %v", s.Tenant, err)
		}
		restored[i] = engine.Restored{Tenant: s.Tenant, Leaser: lsr, Events: s.Events, Closed: s.Closed}
	}
	if err := eng.Restore(restored); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return eng
}

// runDurable logs all cases through a durable engine, chunked so event
// batches interleave across tenants, and closes everything cleanly.
// splitAt < len(events) leaves the tail of every tenant unsubmitted
// (for resume tests); here it is always full length.
func runDurable(t *testing.T, dir string, cases []remoteCase, cfg engine.Config, opts wal.Options) {
	t.Helper()
	wlog, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = wlog
	eng := engine.New(cfg)
	for _, tc := range cases {
		lsr, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		if err := eng.OpenSpec(tc.name, lsr, specBytes(t, tc.spec)); err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
	}
	// Round-robin chunked submission so the log interleaves tenants.
	const chunk = 7
	offset := make([]int, len(cases))
	for live := len(cases); live > 0; {
		live = 0
		for i, tc := range cases {
			lo := offset[i]
			if lo >= len(tc.events) {
				continue
			}
			hi := min(lo+chunk, len(tc.events))
			if err := eng.SubmitBatch(tc.name, tc.events[lo:hi:hi]); err != nil {
				t.Fatalf("%s: submit: %v", tc.name, err)
			}
			offset[i] = hi
			if hi < len(tc.events) {
				live++
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
}

// verifyRecovered holds one recovered tenant to byte-identity with a
// Replay of events through a spec-built leaser.
func verifyRecovered(t *testing.T, eng *engine.Engine, tc remoteCase, events []stream.Event, label string) {
	t.Helper()
	ref, err := tc.spec.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", tc.name, err)
	}
	want, err := stream.Replay(ref, events)
	if err != nil {
		t.Fatalf("%s: replay: %v", tc.name, err)
	}
	got, err := eng.Result(tc.name)
	if err != nil {
		t.Fatalf("%s [%s]: result: %v", tc.name, label, err)
	}
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Errorf("%s [%s]: recovered run not byte-identical to Replay of logged history:\nrecovered %s\nreplay    %s",
			tc.name, label, g, w)
	}
	cost, err := eng.Cost(tc.name)
	if err != nil {
		t.Fatalf("%s [%s]: cost: %v", tc.name, label, err)
	}
	if cost != want.Final {
		t.Errorf("%s [%s]: recovered cost %+v != replay final %+v", tc.name, label, cost, want.Final)
	}
	sol, err := eng.Snapshot(tc.name)
	if err != nil {
		t.Fatalf("%s [%s]: snapshot: %v", tc.name, label, err)
	}
	if g, w := fmt.Sprintf("%#v", sol), fmt.Sprintf("%#v", ref.Snapshot()); g != w {
		t.Errorf("%s [%s]: recovered snapshot differs from replay snapshot", tc.name, label)
	}
	n, err := eng.Events(tc.name)
	if err != nil || n != int64(len(events)) {
		t.Errorf("%s [%s]: recovered %d events (%v), want %d", tc.name, label, n, err, len(events))
	}
}

// TestRecoveryParityAllDomains sweeps shard/batch/fsync configurations:
// all eight domain leasers are logged under one engine shape, recovered
// under a different one, and every tenant must match a Replay of its
// full logged history. Segment rotation is forced small so recovery
// also crosses segment boundaries. runDurable logs every spec whole,
// demand stream included, as builds before stream-less open records
// wrote them, so this is also the check that such logs still recover
// under the same segment version.
func TestRecoveryParityAllDomains(t *testing.T) {
	if wal.SegVersion != 3 {
		t.Fatalf("segment version %d: open records without a stream need no new version, want 3", wal.SegVersion)
	}
	cases := remoteCases(t)
	configs := []struct {
		logShards, logBatch int
		recShards, recBatch int
		fsync               bool
		segBytes            int64
	}{
		{1, 1, 4, 64, false, 1 << 20},
		{4, 8, 16, 1, true, 4096},
		{16, 64, 1, 8, false, 512},
		{4, 1, 4, 8, true, 1 << 20},
		{16, 8, 8, 64, false, 4096},
	}
	for _, cc := range configs {
		name := fmt.Sprintf("log_s%db%d/rec_s%db%d/fsync=%v", cc.logShards, cc.logBatch, cc.recShards, cc.recBatch, cc.fsync)
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			runDurable(t, dir, cases,
				engine.Config{Shards: cc.logShards, BatchSize: cc.logBatch, RecordRuns: true},
				wal.Options{Fsync: cc.fsync, SegmentBytes: cc.segBytes})

			wlog, err := wal.Open(dir, wal.Options{Fsync: cc.fsync, SegmentBytes: cc.segBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer wlog.Close()
			streams := 0
			for _, s := range wlog.Recover() {
				for _, field := range []string{`"arrivals":[`, `"batches":[`, `"requests":[`} {
					if strings.Contains(string(s.Spec), field) {
						streams++
					}
				}
			}
			if streams != 4 {
				t.Fatalf("%d open records carry a demand stream, want 4", streams)
			}
			eng := recoverEngine(t, wlog, engine.Config{Shards: cc.recShards, BatchSize: cc.recBatch, RecordRuns: true})
			defer eng.Close()
			for _, tc := range cases {
				verifyRecovered(t, eng, tc, tc.events, "recovered")
			}
		})
	}
}

// TestRecoveryFacilityRoundsRefusesVersion2: a facility tenant whose
// history spans several l_max rounds recovers byte-identical to a
// Replay of its logged spec, which builds the round-reset rule. The
// full-history rule that version-2 builds applied ends elsewhere on the
// same events, so the same log with its headers rewritten to version 2
// must be refused at open, naming the version, instead of recovering
// into a state its writer never applied.
func TestRecoveryFacilityRoundsRefusesVersion2(t *testing.T) {
	var tc remoteCase
	for _, c := range remoteCases(t) {
		if c.name == "facility" {
			tc = c
		}
	}
	lmax := tc.spec.Types[len(tc.spec.Types)-1].Length
	if last := tc.events[len(tc.events)-1].Time; last < 2*lmax {
		t.Fatalf("facility history ends at step %d, inside two rounds of l_max %d", last, lmax)
	}
	dir := t.TempDir()
	runDurable(t, dir, []remoteCase{tc}, engine.Config{Shards: 2, BatchSize: 8, RecordRuns: true}, wal.Options{})

	wlog, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := recoverEngine(t, wlog, engine.Config{Shards: 3, BatchSize: 5, RecordRuns: true})
	verifyRecovered(t, eng, tc, tc.events, "round reset")
	got, err := eng.Cost(tc.name)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	if full := fullHistoryReplay(t, tc); full == got {
		t.Fatalf("full-history and round-reset rules agree on this history (%+v); it cannot show why version 2 is refused", got)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	for _, path := range segs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(b[8:12], 2)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if old, err := wal.Open(dir, wal.Options{}); err == nil {
		old.Close()
		t.Fatal("a version-2 log opened")
	} else if !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version-2 refusal does not name the version: %v", err)
	}
}

// fullHistoryReplay replays a facility case under the literal
// full-history rule and returns its final cost.
func fullHistoryReplay(t *testing.T, tc remoteCase) stream.CostBreakdown {
	t.Helper()
	sp := tc.spec.Facility
	types := make([]lease.Type, len(tc.spec.Types))
	for i, lt := range tc.spec.Types {
		types[i] = lease.Type{Length: lt.Length, Cost: lt.Cost}
	}
	cfg, err := lease.NewConfig(types...)
	if err != nil {
		t.Fatal(err)
	}
	point := func(p wire.Point) metric.Point { return metric.Point{X: p.X, Y: p.Y} }
	sites := make([]metric.Point, len(sp.Sites))
	for i, p := range sp.Sites {
		sites[i] = point(p)
	}
	batches := make([][]metric.Point, len(sp.Batches))
	for i, b := range sp.Batches {
		for _, p := range b {
			batches[i] = append(batches[i], point(p))
		}
	}
	inst, err := facility.NewInstance(cfg, sites, sp.Costs, batches)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := facility.NewOnline(inst, facility.Options{FullHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	run, err := stream.Replay(facility.NewLeaser(alg), tc.events)
	if err != nil {
		t.Fatal(err)
	}
	return run.Final
}

// TestRecoveryReplaysWhatTheSessionApplied: an element multiplicity
// the set-cover leaser rejects — p -1 submitted as JSON and over the
// binary framing, and an in-process P 0 — fails its session live, and
// the session rebuilt from the write-ahead log must end at the same
// processed count with the same error instead of replaying a repaired
// record.
func TestRecoveryReplaysWhatTheSessionApplied(t *testing.T) {
	var spec wire.OpenRequest
	for _, tc := range remoteCases(t) {
		if tc.name == "setcover" {
			spec = tc.spec
		}
	}
	bad := []wire.Event{{Time: 0, Kind: wire.KindElement, Elem: 0, P: -1}}
	frame, err := wire.AppendEventsBinaryWire(nil, bad)
	if err != nil {
		t.Fatal(err)
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
	for _, tenant := range []string{"json", "binary"} {
		if status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/" + tenant,
			contentType: "application/json", body: mustJSON(t, spec)}); status != http.StatusCreated {
			t.Fatalf("open %s: status %d body %s", tenant, status, body)
		}
	}
	if status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/json/events",
		contentType: "application/json", body: mustJSON(t, bad)}); status != http.StatusOK {
		t.Fatalf("JSON submit: status %d body %s", status, body)
	}
	if status, apiErr := postBinary(t, ts, "binary", wire.AppendFrame([]byte(wire.BinaryMagic), frame)); apiErr != nil {
		t.Fatalf("binary submit: status %d %+v", status, apiErr)
	}
	lsr, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenSpec("in-process", lsr, specBytes(t, spec)); err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitBatch("in-process", []stream.Event{{Time: 0, Payload: stream.Element{Elem: 0, P: 0}}}); err != nil {
		t.Fatal(err)
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
	for _, tenant := range []string{"json", "binary", "in-process"} {
		if want[tenant] = read(eng, tenant); want[tenant].err == "" {
			t.Errorf("%s: a bad multiplicity did not fail the live session: %+v", tenant, want[tenant])
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
	rec := recoverEngine(t, wlog, cfg)
	defer rec.Close()
	for tenant, w := range want {
		if got := read(rec, tenant); got != w {
			t.Errorf("%s: live session ended at %+v, recovered one at %+v", tenant, w, got)
		}
	}
}

// TestRecoveryResumesAndCloses: a recovered session keeps accepting
// events exactly where its logged history ends, a session closed before
// the crash recovers sealed, and a second recovery (a crash after the
// first recovery plus new traffic) still matches Replay.
func TestRecoveryResumesAndCloses(t *testing.T) {
	cases := remoteCases(t)
	dir := t.TempDir()

	// First life: submit only a prefix of each stream; close one tenant.
	wlog, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 4, BatchSize: 8, RecordRuns: true, WAL: wlog})
	split := make(map[string]int, len(cases))
	for _, tc := range cases {
		lsr, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.OpenSpec(tc.name, lsr, specBytes(t, tc.spec)); err != nil {
			t.Fatal(err)
		}
		split[tc.name] = len(tc.events) / 2
		if err := eng.SubmitBatch(tc.name, tc.events[:split[tc.name]]); err != nil {
			t.Fatal(err)
		}
	}
	sealed := cases[0].name
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.CloseTenant(sealed); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: recover, resume the open tenants, re-verify all.
	wlog2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := recoverEngine(t, wlog2, engine.Config{Shards: 2, BatchSize: 16, RecordRuns: true})
	for _, tc := range cases {
		if tc.name == sealed {
			// Sealed before the crash: recovered sealed, reads serve the
			// prefix state, new events are rejected by the seal.
			if err := eng2.CloseTenant(tc.name); err == nil {
				t.Errorf("%s: recovered session not sealed", tc.name)
			}
			verifyRecovered(t, eng2, tc, tc.events[:split[tc.name]], "sealed")
			continue
		}
		if err := eng2.SubmitBatch(tc.name, tc.events[split[tc.name]:]); err != nil {
			t.Fatalf("%s: resume: %v", tc.name, err)
		}
	}
	if err := eng2.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if tc.name == sealed {
			continue
		}
		verifyRecovered(t, eng2, tc, tc.events, "resumed")
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third life: nothing new happened after the resume; recovery of the
	// resumed log still matches the full streams.
	wlog3, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog3.Close()
	eng3 := recoverEngine(t, wlog3, engine.Config{Shards: 8, BatchSize: 4, RecordRuns: true})
	defer eng3.Close()
	for _, tc := range cases {
		if tc.name == sealed {
			verifyRecovered(t, eng3, tc, tc.events[:split[tc.name]], "sealed-again")
			continue
		}
		verifyRecovered(t, eng3, tc, tc.events, "recovered-again")
	}
}

// TestRecoveryTruncatesTornTail: a torn (half-written) or corrupted
// (bit-flipped) final record must be truncated, and the recovered
// session must equal a Replay of the surviving whole-record prefix —
// never a replay of damaged bytes.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	tc := remoteCases(t)[0] // parking: one event per record below
	for _, tear := range []struct {
		name   string
		mutate func(t *testing.T, path string, size int64)
	}{
		{"truncated mid-record", func(t *testing.T, path string, size int64) {
			if err := os.Truncate(path, size-2); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit flip in last record", func(t *testing.T, path string, size int64) {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{0xA5}, size-3); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			wlog, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng := engine.New(engine.Config{Shards: 1, RecordRuns: true, WAL: wlog})
			lsr, err := tc.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.OpenSpec(tc.name, lsr, specBytes(t, tc.spec)); err != nil {
				t.Fatal(err)
			}
			// One event per record, so the torn record boundary is an
			// event boundary and the survivor set is a strict prefix.
			for _, ev := range tc.events {
				if err := eng.SubmitBatch(tc.name, []stream.Event{ev}); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if err := wlog.Close(); err != nil {
				t.Fatal(err)
			}

			// Damage the tail of the last (only) segment.
			path := dir + "/00000001.wal"
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			tear.mutate(t, path, fi.Size())

			wlog2, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatalf("open after tear: %v", err)
			}
			defer wlog2.Close()
			sessions := wlog2.Recover()
			if len(sessions) != 1 {
				t.Fatalf("recovered %d sessions", len(sessions))
			}
			n := len(sessions[0].Events)
			if n != len(tc.events)-1 {
				t.Fatalf("recovered %d events, want the %d-event prefix", n, len(tc.events)-1)
			}
			eng2 := recoverEngine(t, wlog2, engine.Config{Shards: 2, RecordRuns: true})
			defer eng2.Close()
			verifyRecovered(t, eng2, tc, tc.events[:n], "torn-tail")
		})
	}
}

// TestRecoveryAfterCompaction: compaction must preserve parity for live
// sessions and reclaim closed ones.
func TestRecoveryAfterCompaction(t *testing.T) {
	cases := remoteCases(t)
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 4, RecordRuns: true, WAL: wlog})
	for _, tc := range cases {
		lsr, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.OpenSpec(tc.name, lsr, specBytes(t, tc.spec)); err != nil {
			t.Fatal(err)
		}
		if err := eng.SubmitBatch(tc.name, tc.events); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	sealed := cases[1].name
	if err := eng.CloseTenant(sealed); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	wlog2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog2.Close()
	for _, s := range wlog2.Recover() {
		if s.Tenant == sealed {
			t.Fatalf("compaction kept the closed tenant %s", sealed)
		}
	}
	eng2 := recoverEngine(t, wlog2, engine.Config{Shards: 1, RecordRuns: true})
	defer eng2.Close()
	for _, tc := range cases {
		if tc.name == sealed {
			continue
		}
		verifyRecovered(t, eng2, tc, tc.events, "post-compaction")
	}
}
