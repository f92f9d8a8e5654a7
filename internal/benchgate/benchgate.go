// Package benchgate is the perf-regression gate behind the -gate flag
// of cmd/leaseload and cmd/leasebench: it extracts the headline figure
// from any committed BENCH_PR*.json snapshot, compares a freshly
// measured report against it, and fails when the measurement is worse
// than the snapshot by more than the configured tolerance. Improvements
// never fail, and a report can only be gated against a snapshot of the
// same tool and mode. A leaseload mode is a label derived from the run's
// target, WAL and fault axes, so an in-process run cannot quietly
// "pass" against a remote or a durable baseline.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"
)

// Metric is the headline figure of one benchmark report.
type Metric struct {
	// Tool and Mode identify the report schema the figure came from.
	Tool string
	Mode string
	// Name is the JSON path of the compared figure.
	Name string
	// Value is the figure itself.
	Value float64
	// HigherBetter orients the comparison (throughput vs wall-clock).
	HigherBetter bool
}

// FromReport extracts the headline metric from a serialized report:
//
//	leasebench (any mode)  -> total_ms, lower is better
//	leaseload (any mode)   -> events_per_sec, higher is better
//
// BENCH_PR5.json, which pairs two WAL runs under sections of their own,
// has no top-level figure and is not a gate reference; docs/DURABILITY.md
// reads it through wal.LoadBenchPair.
func FromReport(raw []byte) (Metric, error) {
	var doc struct {
		Tool         string  `json:"tool"`
		Mode         string  `json:"mode"`
		EventsPerSec float64 `json:"events_per_sec"`
		TotalMS      float64 `json:"total_ms"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return Metric{}, fmt.Errorf("benchgate: parse report: %w", err)
	}
	m := Metric{Tool: doc.Tool, Mode: doc.Mode}
	switch {
	case doc.Tool == "leasebench":
		m.Name, m.Value, m.HigherBetter = "total_ms", doc.TotalMS, false
	case doc.Tool == "leaseload":
		m.Name, m.Value, m.HigherBetter = "events_per_sec", doc.EventsPerSec, true
	default:
		return Metric{}, fmt.Errorf("benchgate: unknown report tool %q", doc.Tool)
	}
	if m.Value <= 0 {
		return Metric{}, fmt.Errorf("benchgate: %s/%s report has no usable %s (got %v)", m.Tool, m.Mode, m.Name, m.Value)
	}
	return m, nil
}

// Load reads a committed snapshot and extracts its headline metric.
func Load(path string) (Metric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Metric{}, fmt.Errorf("benchgate: %w", err)
	}
	m, err := FromReport(raw)
	if err != nil {
		return Metric{}, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return m, nil
}

// GateReport is the one-call form both load tools use: marshal the
// freshly built report, load the committed snapshot at refPath, and
// Check. The two extracted metrics come back for the caller's success
// message.
func GateReport(report any, refPath string, tolerance float64) (measured, reference Metric, err error) {
	raw, err := json.Marshal(report)
	if err != nil {
		return Metric{}, Metric{}, fmt.Errorf("benchgate: marshal report: %w", err)
	}
	if measured, err = FromReport(raw); err != nil {
		return Metric{}, Metric{}, err
	}
	if reference, err = Load(refPath); err != nil {
		return Metric{}, Metric{}, err
	}
	return measured, reference, Check(measured, reference, tolerance)
}

// Check fails when measured regressed past the reference by more than
// tolerance (a fraction: 0.15 allows a 15% regression). The two metrics
// must come from the same tool and mode.
func Check(measured, reference Metric, tolerance float64) error {
	if tolerance <= 0 || tolerance >= 1 {
		return fmt.Errorf("benchgate: tolerance must be in (0,1), got %v", tolerance)
	}
	if measured.Tool != reference.Tool || measured.Mode != reference.Mode {
		return fmt.Errorf("benchgate: measured %s/%s cannot be gated against reference %s/%s",
			measured.Tool, measured.Mode, reference.Tool, reference.Mode)
	}
	change := measured.Value/reference.Value - 1
	regressed := change < -tolerance
	if !reference.HigherBetter {
		regressed = change > tolerance
	}
	if regressed {
		return fmt.Errorf("benchgate: %s regressed %.1f%% past the %.0f%% tolerance (measured %.1f, reference %.1f)",
			measured.Name, 100*change, 100*tolerance, measured.Value, reference.Value)
	}
	return nil
}
