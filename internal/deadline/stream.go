package deadline

import (
	"fmt"

	"leasing/internal/lease"
	"leasing/internal/setcover"
	"leasing/internal/stream"
)

// Leaser adapts the OLD primal-dual Online algorithm to the unified
// stream protocol. The single resource is item 0; each Window payload is
// one flexible client (t, d).
type Leaser struct {
	alg *Online
	log *stream.Journal[lease.Lease]
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps an OLD algorithm as a stream.Leaser.
func NewLeaser(alg *Online) *Leaser {
	return &Leaser{alg: alg, log: stream.NewJournal(alg.BoughtSince, stream.SingleResource)}
}

// Observe implements stream.Leaser. It accepts Window payloads.
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.Window)
	if !ok {
		return stream.Decision{}, fmt.Errorf("deadline: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Arrive(ev.Time, p.D); err != nil {
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

// SCLDStream adapts the SCLD randomized algorithm to the unified stream
// protocol. Items are set indices; each ElementWindow payload is one
// deadline demand (element, window).
type SCLDStream struct {
	alg *SCLDOnline
	log *stream.Journal[setcover.SetLease]
}

var _ stream.Leaser = (*SCLDStream)(nil)

// NewSCLDStream wraps an SCLD algorithm as a stream.Leaser.
func NewSCLDStream(alg *SCLDOnline) *SCLDStream {
	return &SCLDStream{alg: alg, log: stream.NewJournal(alg.BoughtSince, setcover.SetLease.Triple)}
}

// Observe implements stream.Leaser. It accepts ElementWindow payloads.
func (l *SCLDStream) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.ElementWindow)
	if !ok {
		return stream.Decision{}, fmt.Errorf("deadline: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Arrive(ev.Time, p.Elem, p.D); err != nil {
		return stream.Decision{}, err
	}
	return l.log.Decision(l.alg.TotalCost()), nil
}

// Cost implements stream.Leaser.
func (l *SCLDStream) Cost() stream.CostBreakdown {
	return stream.CostBreakdown{Lease: l.alg.TotalCost()}
}

// Snapshot implements stream.Leaser.
func (l *SCLDStream) Snapshot() stream.Solution { return stream.Solution{Leases: l.log.Leases()} }

// SCLDEvents converts SCLD arrivals into ElementWindow events.
func SCLDEvents(arrivals []SCLDArrival) []stream.Event {
	out := make([]stream.Event, len(arrivals))
	for i, a := range arrivals {
		out[i] = stream.Event{Time: a.T, Payload: stream.ElementWindow{Elem: a.Elem, D: a.D}}
	}
	return out
}
