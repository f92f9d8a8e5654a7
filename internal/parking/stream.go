package parking

import (
	"fmt"

	"leasing/internal/lease"
	"leasing/internal/stream"
)

// Leaser adapts any parking-permit Algorithm (deterministic, randomized or
// predictive) to the unified stream protocol. The single resource is item
// 0; the adapter delegates every demand to the native Arrive and reads
// its decision off the algorithm's purchase log (BoughtSince).
type Leaser struct {
	alg Algorithm
	log *stream.Journal[lease.Lease]
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps a parking-permit algorithm as a stream.Leaser.
func NewLeaser(alg Algorithm) *Leaser {
	return &Leaser{alg: alg, log: stream.NewJournal(alg.BoughtSince, stream.SingleResource)}
}

// Observe implements stream.Leaser. It accepts Day payloads (or nil).
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	if _, ok := ev.Payload.(stream.Day); !ok && ev.Payload != nil {
		return stream.Decision{}, fmt.Errorf("parking: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Arrive(ev.Time); err != nil {
		return stream.Decision{}, err
	}
	return l.log.Decision(l.alg.TotalCost()), nil
}

// Cost implements stream.Leaser.
func (l *Leaser) Cost() stream.CostBreakdown {
	return stream.CostBreakdown{Lease: l.alg.TotalCost()}
}

// Snapshot implements stream.Leaser.
func (l *Leaser) Snapshot() stream.Solution { return stream.Solution{Leases: l.log.Leases()} }
