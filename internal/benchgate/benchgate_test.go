package benchgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFromReportSchemas: every committed BENCH_PR*.json shape resolves
// to its documented headline figure.
func TestFromReportSchemas(t *testing.T) {
	cases := []struct {
		name, raw  string
		wantName   string
		wantValue  float64
		wantHigher bool
	}{
		{
			name:     "leasebench",
			raw:      `{"tool":"leasebench","mode":"quick","total_ms":1234.5}`,
			wantName: "total_ms", wantValue: 1234.5, wantHigher: false,
		},
		{
			name:     "leaseload engine",
			raw:      `{"tool":"leaseload","mode":"engine","events_per_sec":12800}`,
			wantName: "events_per_sec", wantValue: 12800, wantHigher: true,
		},
		{
			name:     "leaseload remote",
			raw:      `{"tool":"leaseload","mode":"remote","events_per_sec":9000}`,
			wantName: "events_per_sec", wantValue: 9000, wantHigher: true,
		},
		{
			// BENCH_PR6.json, the retired stepped ramp, mirrored its knee
			// to the top level.
			name:     "ramp",
			raw:      `{"tool":"leaseload","mode":"ramp","events_per_sec":4800,"ramp":{"max_events_per_sec_under_sla":4800}}`,
			wantName: "events_per_sec", wantValue: 4800, wantHigher: true,
		},
		{
			name:     "leaseload cluster",
			raw:      `{"tool":"leaseload","mode":"cluster4-wal-nosync","nodes":4,"wal":"nosync","events_per_sec":10500}`,
			wantName: "events_per_sec", wantValue: 10500, wantHigher: true,
		},
		{
			// BENCH_PR8.json: the top-level figure is the largest fleet's
			// throughput, so the gate bites on a regression at scale even
			// when the single-node fleet is unchanged.
			name:     "cluster-bench",
			raw:      `{"tool":"leaseload","mode":"cluster-bench","events_per_sec":10500,"scaling_efficiency":0.22,"fleets":[{"nodes":1,"events_per_sec":11800},{"nodes":4,"events_per_sec":10500}]}`,
			wantName: "events_per_sec", wantValue: 10500, wantHigher: true,
		},
	}
	for _, tc := range cases {
		m, err := FromReport([]byte(tc.raw))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if m.Name != tc.wantName || m.Value != tc.wantValue || m.HigherBetter != tc.wantHigher {
			t.Errorf("%s: got %+v, want %s=%v higher=%v", tc.name, m, tc.wantName, tc.wantValue, tc.wantHigher)
		}
	}
}

func TestFromReportRejects(t *testing.T) {
	for name, raw := range map[string]string{
		"unknown tool":      `{"tool":"x","mode":"y"}`,
		"missing figure":    `{"tool":"leaseload","mode":"engine"}`,
		"ramp without knee": `{"tool":"leaseload","mode":"ramp","events_per_sec":0,"ramp":{"max_events_per_sec_under_sla":0}}`,
		"not json":          `events/s: lots`,
	} {
		if _, err := FromReport([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCheck covers both orientations, the tolerance boundary, and the
// mode-mismatch guard.
func TestCheck(t *testing.T) {
	ref := Metric{Tool: "leaseload", Mode: "engine", Name: "events_per_sec", Value: 1000, HigherBetter: true}
	meas := func(v float64) Metric { m := ref; m.Value = v; return m }

	if err := Check(meas(1000), ref, 0.15); err != nil {
		t.Errorf("equal value failed: %v", err)
	}
	if err := Check(meas(860), ref, 0.15); err != nil {
		t.Errorf("within tolerance failed: %v", err)
	}
	if err := Check(meas(840), ref, 0.15); err == nil {
		t.Error("16% regression passed a 15% gate")
	}
	if err := Check(meas(2000), ref, 0.15); err != nil {
		t.Errorf("improvement failed the gate: %v", err)
	}

	lower := Metric{Tool: "leasebench", Mode: "quick", Name: "total_ms", Value: 1000, HigherBetter: false}
	lmeas := func(v float64) Metric { m := lower; m.Value = v; return m }
	if err := Check(lmeas(1100), lower, 0.15); err != nil {
		t.Errorf("lower-better within tolerance failed: %v", err)
	}
	if err := Check(lmeas(1200), lower, 0.15); err == nil {
		t.Error("20% slowdown passed a 15% gate")
	}
	if err := Check(lmeas(500), lower, 0.15); err != nil {
		t.Errorf("lower-better improvement failed: %v", err)
	}

	// Modes name a run's target, WAL and fault axes: a change in any of
	// them is a different measurement.
	for _, mode := range []string{"remote", "wal-nosync", "cluster4-wal-nosync"} {
		other := ref
		other.Mode = mode
		if err := Check(other, ref, 0.15); err == nil {
			t.Errorf("mode %s gated against %s", mode, ref.Mode)
		}
	}
	if err := Check(meas(1000), ref, 0); err == nil {
		t.Error("zero tolerance accepted")
	}
}

// TestLoadCommittedSnapshots: every BENCH_*.json in the repo root stays
// loadable — the gate must never be silently unable to read its own
// references — except BENCH_PR5.json, the two-run WAL pair, which has
// no top-level figure and must be refused rather than gated.
func TestLoadCommittedSnapshots(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Skip("no committed snapshots found")
	}
	for _, path := range matches {
		m, err := Load(path)
		if filepath.Base(path) == "BENCH_PR5.json" {
			if err == nil {
				t.Errorf("BENCH_PR5.json loaded as a gate reference: %+v", m)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		t.Logf("%s: %s/%s %s = %.1f", filepath.Base(path), m.Tool, m.Mode, m.Name, m.Value)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(os.TempDir(), "no-such-bench.json")); err == nil || !strings.Contains(err.Error(), "benchgate") {
		t.Errorf("missing file: err %v", err)
	}
}
