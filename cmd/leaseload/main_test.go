package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"leasing/internal/benchgate"
)

// runJSON runs leaseload with -json appended and decodes the report.
func runJSON(t *testing.T, args ...string) jsonReport {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(args, "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	return rep
}

// leasedDir holds the leased binary the spawning tests share; TestMain
// removes it.
var (
	leasedOnce sync.Once
	leasedDir  string
	leasedPath string
	leasedErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if leasedDir != "" {
		os.RemoveAll(leasedDir)
	}
	os.Exit(code)
}

// leasedBinary builds cmd/leased once per test binary, skipping where
// the kill drills cannot run.
func leasedBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("kill drills build and spawn the daemon")
	}
	if runtime.GOOS == "windows" {
		t.Skip("kill drills rely on SIGKILL/SIGTERM")
	}
	leasedOnce.Do(func() {
		if leasedDir, leasedErr = os.MkdirTemp("", "leaseload-test-*"); leasedErr != nil {
			return
		}
		leasedPath = filepath.Join(leasedDir, "leased")
		if out, err := exec.Command("go", "build", "-o", leasedPath, "../leased").CombinedOutput(); err != nil {
			leasedErr = fmt.Errorf("build leased: %v\n%s", err, out)
		}
	})
	if leasedErr != nil {
		t.Fatal(leasedErr)
	}
	return leasedPath
}

// TestJSONReport runs a small verified load and checks the machine-
// readable report is complete and self-consistent.
func TestJSONReport(t *testing.T) {
	rep := runJSON(t, "-tenants", "10", "-events", "60", "-shards", "4",
		"-producers", "3", "-chunk", "7", "-verify")
	if rep.Tool != "leaseload" {
		t.Errorf("tool = %q", rep.Tool)
	}
	if rep.Tenants != 10 {
		t.Errorf("tenants = %d, want 10", rep.Tenants)
	}
	if rep.TotalEvents <= 0 || rep.EventsPerSec <= 0 {
		t.Errorf("events = %d, rate = %v, want > 0", rep.TotalEvents, rep.EventsPerSec)
	}
	if rep.Engine.Events != rep.TotalEvents {
		t.Errorf("engine processed %d of %d events", rep.Engine.Events, rep.TotalEvents)
	}
	if rep.Engine.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.Engine.Dropped)
	}
	if len(rep.Engine.Shards) != 4 {
		t.Errorf("shard samples = %d, want 4", len(rep.Engine.Shards))
	}
	if rep.Verified == nil || !*rep.Verified {
		t.Error("run was not verified against Replay")
	}
	var n int
	for _, c := range rep.Domains {
		n += c
	}
	if n != rep.Tenants {
		t.Errorf("domain counts sum to %d, want %d", n, rep.Tenants)
	}
}

// TestTextReport checks the human-readable output carries the headline
// numbers.
func TestTextReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-tenants", "5", "-events", "40", "-shards", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"tenants: 5", "events/s", "submit latency", "shards:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestOutFileAnnouncedToCaller: with -out the report goes to the file,
// and the line naming it goes to the caller's writer, not the process's
// stdout.
func TestOutFileAnnouncedToCaller(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	if err := run([]string{"-tenants", "4", "-events", "30", "-shards", "2", "-json", "-out", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := "leaseload: wrote " + path + "\n"; buf.String() != want {
		t.Errorf("caller's writer got %q, want %q", buf.String(), want)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(b, &rep); err != nil || rep.Tool != "leaseload" {
		t.Errorf("report file does not hold the report (%v): %s", err, b)
	}
}

// TestDeterministicWorkload asserts the synthesized traffic is a pure
// function of the seed: two runs report identical totals, verify every
// tenant against Replay, and reach the same cost.
func TestDeterministicWorkload(t *testing.T) {
	args := []string{"-tenants", "8", "-events", "50", "-verify"}
	a, b := runJSON(t, args...), runJSON(t, args...)
	if a.TotalEvents != b.TotalEvents {
		t.Errorf("event totals differ: %d vs %d", a.TotalEvents, b.TotalEvents)
	}
	if a.Verified == nil || !*a.Verified || b.Verified == nil || !*b.Verified {
		t.Error("runs were not verified against Replay")
	}
	if a.Engine.Cost != b.Engine.Cost {
		t.Errorf("costs differ: %v vs %v", a.Engine.Cost, b.Engine.Cost)
	}
}

// TestBadFlags: bad values and every axis combination that cannot run
// are rejected up front, before any work.
func TestBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"zero tenants":          {"-tenants", "0"},
		"unknown flag":          {"-nope"},
		"negative nodes":        {"-nodes", "-1"},
		"unknown wal":           {"-wal", "sometimes"},
		"-addr with -nodes 2":   {"-addr", "http://127.0.0.1:1", "-nodes", "2", "-wal", "nosync"},
		"-addr with -leased":    {"-addr", "http://127.0.0.1:1", "-leased", "/tmp/leased"},
		"-addr with -shards":    {"-addr", "http://127.0.0.1:1", "-shards", "2"},
		"-addr with -wal":       {"-addr", "http://127.0.0.1:1", "-wal", "fsync"},
		"-leased on the engine": {"-leased", "/tmp/leased"},
		"cluster without a wal": {"-nodes", "2"},
		"-binary on the engine": {"-binary"},
		"-kill without -leased": {"-kill", "-nodes", "1", "-wal", "fsync"},
		"-kill without a wal":   {"-kill", "-leased", "/tmp/leased", "-nodes", "1"},
		"unknown domain":        {"-domains", "days,tennis"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRampBadFlags: the perf gate's tolerance needs a gate, and the
// retired ramp's stepping, SLA and traffic-shaping flags fail up front,
// so a command line written for the ramp cannot quietly run one
// fixed-work load in its place.
func TestRampBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"-gate-tolerance without -gate": {"-gate-tolerance", "0.2"},
		"-step-tenants":                 {"-step-tenants", "4"},
		"-step-duration":                {"-step-duration", "1s"},
		"-sla-p99":                      {"-sla-p99", "3"},
		"-sla-percentile":               {"-sla-percentile", "0.9"},
		"-arrival":                      {"-arrival", "bursty"},
		"-arrival-period":               {"-arrival-period", "1s"},
		"-zipf-sizes":                   {"-zipf-sizes", "1.2"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestModeLabels: the report mode names the axes, and the configurations
// the committed snapshots were measured with keep their labels.
func TestModeLabels(t *testing.T) {
	for want, c := range map[string]config{
		"engine":                 {tenants: 64},
		"remote":                 {tenants: 64, nodes: 1},
		"wal-fsync":              {tenants: 64, wal: "fsync"},
		"cluster4-wal-nosync":    {tenants: 64, nodes: 4, wal: "nosync"},
		"remote-wal-nosync":      {tenants: 64, nodes: 1, wal: "nosync"},
		"leased3-wal-fsync-kill": {tenants: 64, nodes: 3, wal: "fsync", leased: "leased", kill: true},
	} {
		if c.wal == "" {
			c.wal = "off"
		}
		if got := c.mode(); got != want {
			t.Errorf("mode of %+v = %q, want %q", c, got, want)
		}
	}
}

// TestDurableBenchReport runs the BENCH_PR5.json pair — the same
// workload through a WAL-backed engine with fsync off, then on — on a
// small workload: both runs process every event, verify against
// Replay, and reach the same outcome.
func TestDurableBenchReport(t *testing.T) {
	reps := map[string]jsonReport{}
	for _, wal := range []string{"nosync", "fsync"} {
		rep := runJSON(t, "-wal", wal, "-tenants", "8", "-events", "50",
			"-shards", "4", "-producers", "2", "-verify")
		if rep.Mode != "wal-"+wal || rep.WAL != wal {
			t.Errorf("-wal %s: mode %q, wal %q", wal, rep.Mode, rep.WAL)
		}
		if rep.Engine.Events != rep.TotalEvents {
			t.Errorf("-wal %s: processed %d of %d events", wal, rep.Engine.Events, rep.TotalEvents)
		}
		if rep.Verified == nil || !*rep.Verified {
			t.Errorf("-wal %s: not verified against Replay", wal)
		}
		reps[wal] = rep
	}
	if off, on := reps["nosync"].Engine.Cost, reps["fsync"].Engine.Cost; off != on {
		t.Errorf("fsync changed the workload outcome: %v vs %v", off, on)
	}
}

// TestCrashRecovery runs the real kill-and-recover drill: spawn a
// durable daemon, SIGKILL it mid-load, restart it on the same data dir,
// resume every tenant from its recovered count, and verify
// byte-identity with Replay of each tenant's full logged history.
func TestCrashRecovery(t *testing.T) {
	rep := runJSON(t, "-leased", leasedBinary(t), "-nodes", "1", "-wal", "fsync", "-kill",
		"-tenants", "8", "-events", "60", "-shards", "4", "-producers", "2")
	if rep.Mode != "leased1-wal-fsync-kill" {
		t.Errorf("mode = %q", rep.Mode)
	}
	if rep.Verified == nil || !*rep.Verified {
		t.Error("kill-and-recover run was not verified against Replay")
	}
	if rep.Engine.Events != rep.TotalEvents {
		t.Errorf("recovered daemon processed %d of %d events", rep.Engine.Events, rep.TotalEvents)
	}
}

// TestClusterKill runs the multi-node drill: three peered daemons, the
// busiest SIGKILLed mid-load, its tenants failed over to their replicas,
// every tenant resumed and verified against Replay, and the survivors
// drained cleanly.
func TestClusterKill(t *testing.T) {
	rep := runJSON(t, "-leased", leasedBinary(t), "-nodes", "3", "-wal", "fsync", "-kill",
		"-tenants", "12", "-events", "60", "-shards", "2", "-producers", "2")
	if rep.Mode != "leased3-wal-fsync-kill" || rep.Nodes != 3 {
		t.Errorf("mode = %q, nodes = %d", rep.Mode, rep.Nodes)
	}
	if rep.Verified == nil || !*rep.Verified {
		t.Error("failed-over run was not verified against Replay")
	}
}

// TestInProcessCluster drives a replicated two-node loopback fleet
// through the cluster client and verifies every tenant; draining
// fails if a shipper gave up on its peer.
func TestInProcessCluster(t *testing.T) {
	rep := runJSON(t, "-nodes", "2", "-wal", "nosync", "-verify",
		"-tenants", "10", "-events", "50", "-shards", "2", "-producers", "2")
	if rep.Mode != "cluster2-wal-nosync" {
		t.Errorf("mode = %q", rep.Mode)
	}
	if rep.Verified == nil || !*rep.Verified {
		t.Error("cluster run was not verified against Replay")
	}
	if rep.Engine.Events != rep.TotalEvents || rep.Engine.Sessions != rep.Tenants {
		t.Errorf("fleet served %d events over %d sessions, want %d over %d",
			rep.Engine.Events, rep.Engine.Sessions, rep.TotalEvents, rep.Tenants)
	}
	if len(rep.Engine.Shards) != 4 {
		t.Errorf("shard samples = %d, want 2 nodes x 2", len(rep.Engine.Shards))
	}
}

// TestRemoteVerified drives the whole remote path end to end: an
// in-process loopback daemon, sessions opened from wire specs, events
// submitted over HTTP, and every tenant's result verified byte-identical
// against a single-threaded Replay of a spec-built leaser.
func TestRemoteVerified(t *testing.T) {
	rep := runJSON(t, "-nodes", "1", "-tenants", "10", "-events", "60", "-shards", "4",
		"-producers", "3", "-chunk", "9", "-verify")
	if rep.Mode != "remote" {
		t.Errorf("mode = %q, want remote", rep.Mode)
	}
	if rep.Verified == nil || !*rep.Verified {
		t.Error("remote run was not verified against Replay")
	}
	if rep.Engine.Events != rep.TotalEvents {
		t.Errorf("daemon processed %d of %d events", rep.Engine.Events, rep.TotalEvents)
	}
	if rep.Engine.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.Engine.Dropped)
	}
}

// TestRemoteMatchesEngineMode asserts the HTTP boundary changes nothing
// about the workload's outcome: a remote run and an in-process run of
// the same seed verify every tenant byte-identical to Replay and report
// identical event totals and the same engine-side cumulative cost.
func TestRemoteMatchesEngineMode(t *testing.T) {
	args := []string{"-tenants", "8", "-events", "50", "-verify"}
	local, remote := runJSON(t, args...), runJSON(t, append(args, "-nodes", "1")...)
	for name, rep := range map[string]jsonReport{"engine": local, "remote": remote} {
		if rep.Verified == nil || !*rep.Verified {
			t.Errorf("%s run was not verified against Replay", name)
		}
	}
	if local.TotalEvents != remote.TotalEvents {
		t.Errorf("event totals differ: engine %d vs remote %d", local.TotalEvents, remote.TotalEvents)
	}
	if local.Engine.Cost != remote.Engine.Cost {
		t.Errorf("costs differ: engine %v vs remote %v", local.Engine.Cost, remote.Engine.Cost)
	}
}

// TestGateFlag: a run gated against its own snapshot passes, and a
// doctored reference with an inflated baseline fails the gate.
func TestGateFlag(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.json")
	args := []string{"-tenants", "8", "-events", "50", "-json"}
	var buf bytes.Buffer
	if err := run(append(args, "-out", ref), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	// Generous tolerance: the two runs measure real wall-clock, so allow
	// wide scheduling noise — the pass/fail mechanics are what's tested.
	if err := run(append(args, "-gate", ref, "-gate-tolerance", "0.9"), &buf); err != nil {
		t.Fatalf("gate against own snapshot failed: %v", err)
	}
	if !strings.Contains(buf.String(), "gate:") {
		t.Errorf("output missing the gate verdict:\n%s", buf.String())
	}

	raw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap["events_per_sec"] = 1e12 // no machine sustains this baseline
	doctored, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = run(append(args, "-gate", bad, "-gate-tolerance", "0.15"), &buf)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("gate against inflated baseline: err = %v, want regression", err)
	}
}

// TestCIGateModes runs every leaseload -gate command of the CI workflow
// on a small load, with -gate, -gate-tolerance and -out removed, and
// requires the report's mode to be the one its committed snapshot
// carries: a gate whose reference was measured in another mode can
// never pass, and this catches it in go test rather than in CI.
func TestCIGateModes(t *testing.T) {
	root := filepath.Join("..", "..")
	raw, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	gates := 0
	for _, line := range strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n") {
		fields := strings.Fields(line)
		at := slices.IndexFunc(fields, func(f string) bool { return path.Base(f) == "leaseload" })
		if at < 0 || !slices.Contains(fields, "-gate") {
			continue
		}
		var ref string
		var args []string
		for i := at + 1; i < len(fields); i++ {
			switch fields[i] {
			case "-gate":
				i++
				ref = fields[i]
			case "-gate-tolerance", "-out":
				i++
			default:
				args = append(args, fields[i])
			}
		}
		gates++
		t.Run(ref, func(t *testing.T) {
			want, err := benchgate.Load(filepath.Join(root, ref))
			if err != nil {
				t.Fatal(err)
			}
			rep := runJSON(t, append(args, "-tenants", "8", "-events", "20")...)
			if rep.Mode != want.Mode {
				t.Errorf("leaseload %s runs in mode %q; %s was measured in mode %q",
					strings.Join(args, " "), rep.Mode, ref, want.Mode)
			}
		})
	}
	if gates == 0 {
		t.Fatal("the CI workflow has no leaseload -gate command")
	}
}
