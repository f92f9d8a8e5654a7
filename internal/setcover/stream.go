package setcover

import (
	"fmt"

	"leasing/internal/stream"
)

// Leaser adapts the set-multicover Online algorithm to the unified stream
// protocol. Items are set indices; every Element payload is delegated to
// the native Arrive and the decision is read off the purchase log.
type Leaser struct {
	alg *Online
	log *stream.Journal[SetLease]
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps a set-multicover algorithm as a stream.Leaser.
func NewLeaser(alg *Online) *Leaser {
	return &Leaser{alg: alg, log: stream.NewJournal(alg.BoughtSince, SetLease.Triple)}
}

// Triple returns the set lease as the stream protocol's (i, k, t) triple.
func (sl SetLease) Triple() stream.ItemLease {
	return stream.ItemLease{Item: sl.Set, K: sl.K, Start: sl.Start}
}

// Observe implements stream.Leaser. It accepts Element payloads.
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.Element)
	if !ok {
		return stream.Decision{}, fmt.Errorf("setcover: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Arrive(ev.Time, p.Elem, p.P); err != nil {
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
