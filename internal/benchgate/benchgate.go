// Package benchgate is the perf-regression gate behind the -gate flag
// of cmd/leaseload: it reads a leaseload report's events_per_sec from a
// committed BENCH_PR*.json snapshot, compares a freshly measured report
// against it, and fails when the measurement is slower than the
// snapshot by more than the configured tolerance. Improvements never
// fail, and a report can only be gated against a snapshot of the same
// mode. A leaseload mode is a label derived from the run's target, WAL
// and fault axes, so an in-process run cannot quietly "pass" against a
// remote or a durable baseline.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"
)

// Metric is the headline figure of one leaseload report: its
// events_per_sec and the mode it was measured in.
type Metric struct {
	Mode  string
	Value float64
}

// FromReport extracts the headline metric from a serialized leaseload
// report. Any other tool's report is refused.
func FromReport(raw []byte) (Metric, error) {
	var doc struct {
		Tool         string  `json:"tool"`
		Mode         string  `json:"mode"`
		EventsPerSec float64 `json:"events_per_sec"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return Metric{}, fmt.Errorf("benchgate: parse report: %w", err)
	}
	if doc.Tool != "leaseload" {
		return Metric{}, fmt.Errorf("benchgate: %q report is not a leaseload report", doc.Tool)
	}
	if doc.EventsPerSec <= 0 {
		return Metric{}, fmt.Errorf("benchgate: leaseload/%s report has no usable events_per_sec (got %v)", doc.Mode, doc.EventsPerSec)
	}
	return Metric{Mode: doc.Mode, Value: doc.EventsPerSec}, nil
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

// GateReport is the one-call form leaseload uses: marshal the freshly
// built report, load the committed snapshot at refPath, and Check. The
// two extracted metrics come back for the caller's success message.
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

// Check fails when measured fell below the reference by more than
// tolerance (a fraction: 0.15 allows a 15% drop). The two metrics must
// come from the same mode.
func Check(measured, reference Metric, tolerance float64) error {
	if tolerance <= 0 || tolerance >= 1 {
		return fmt.Errorf("benchgate: tolerance must be in (0,1), got %v", tolerance)
	}
	if measured.Mode != reference.Mode {
		return fmt.Errorf("benchgate: measured mode %s cannot be gated against reference mode %s",
			measured.Mode, reference.Mode)
	}
	if change := measured.Value/reference.Value - 1; change < -tolerance {
		return fmt.Errorf("benchgate: events_per_sec regressed %.1f%% past the %.0f%% tolerance (measured %.1f, reference %.1f)",
			100*change, 100*tolerance, measured.Value, reference.Value)
	}
	return nil
}
