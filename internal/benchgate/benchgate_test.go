package benchgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFromReportSchemas: every leaseload report shape resolves to its
// events_per_sec and mode.
func TestFromReportSchemas(t *testing.T) {
	cases := []struct {
		name, raw string
		want      Metric
	}{
		{
			name: "leaseload engine",
			raw:  `{"tool":"leaseload","mode":"engine","events_per_sec":12800}`,
			want: Metric{Mode: "engine", Value: 12800},
		},
		{
			name: "leaseload remote",
			raw:  `{"tool":"leaseload","mode":"remote","events_per_sec":9000}`,
			want: Metric{Mode: "remote", Value: 9000},
		},
		{
			// BENCH_PR6.json, the retired stepped ramp, mirrored its knee
			// to the top level.
			name: "ramp",
			raw:  `{"tool":"leaseload","mode":"ramp","events_per_sec":4800,"ramp":{"max_events_per_sec_under_sla":4800}}`,
			want: Metric{Mode: "ramp", Value: 4800},
		},
		{
			name: "leaseload cluster",
			raw:  `{"tool":"leaseload","mode":"cluster4-wal-nosync","nodes":4,"wal":"nosync","events_per_sec":10500}`,
			want: Metric{Mode: "cluster4-wal-nosync", Value: 10500},
		},
		{
			// BENCH_PR8.json: the top-level figure is the largest fleet's
			// throughput, so the gate bites on a regression at scale even
			// when the single-node fleet is unchanged.
			name: "cluster-bench",
			raw:  `{"tool":"leaseload","mode":"cluster-bench","events_per_sec":10500,"scaling_efficiency":0.22,"fleets":[{"nodes":1,"events_per_sec":11800},{"nodes":4,"events_per_sec":10500}]}`,
			want: Metric{Mode: "cluster-bench", Value: 10500},
		},
	}
	for _, tc := range cases {
		m, err := FromReport([]byte(tc.raw))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if m != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, m, tc.want)
		}
	}
}

func TestFromReportRejects(t *testing.T) {
	for name, raw := range map[string]string{
		"unknown tool":      `{"tool":"x","mode":"y"}`,
		"leasebench report": `{"tool":"leasebench","mode":"quick","total_ms":1234.5}`,
		"missing figure":    `{"tool":"leaseload","mode":"engine"}`,
		"ramp without knee": `{"tool":"leaseload","mode":"ramp","events_per_sec":0,"ramp":{"max_events_per_sec_under_sla":0}}`,
		"not json":          `events/s: lots`,
	} {
		if _, err := FromReport([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCheck covers the tolerance boundary, improvements, and the
// mode-mismatch guard.
func TestCheck(t *testing.T) {
	ref := Metric{Mode: "engine", Value: 1000}
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

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(os.TempDir(), "no-such-bench.json")); err == nil || !strings.Contains(err.Error(), "benchgate") {
		t.Errorf("missing file: err %v", err)
	}
}
