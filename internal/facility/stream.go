package facility

import (
	"fmt"

	"leasing/internal/core"
	"leasing/internal/stream"
)

// Leaser adapts the facility-leasing Online algorithm to the unified
// stream protocol. Items are site indices; each Batch payload is one
// Step, and new client connections surface as Decision assignments.
type Leaser struct {
	alg *Online
	log *stream.Journal[core.ItemLease]
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps a facility-leasing algorithm as a stream.Leaser.
func NewLeaser(alg *Online) *Leaser {
	return &Leaser{alg: alg, log: stream.NewJournal(alg.store.BoughtSince, stream.Identity)}
}

// Observe implements stream.Leaser. It accepts Batch payloads (an empty
// batch is a valid empty step).
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.Batch)
	if !ok {
		return stream.Decision{}, fmt.Errorf("facility: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Step(ev.Time, p.Clients); err != nil {
		return stream.Decision{}, err
	}
	d := l.log.Decision(l.alg.TotalCost())
	// A step appends its clients to the live round and assigns only
	// them, once, so its assignments are the round's tail.
	for _, cs := range l.alg.clients[len(l.alg.clients)-len(p.Clients):] {
		d.Assignments = append(d.Assignments, streamAssignment(cs.assign))
	}
	return d, nil
}

// Cost implements stream.Leaser, splitting leasing from connection cost.
func (l *Leaser) Cost() stream.CostBreakdown {
	return stream.CostBreakdown{Lease: l.alg.LeaseCost(), Service: l.alg.ConnectionCost()}
}

// Snapshot implements stream.Leaser. Assignments are every client's, in
// arrival order.
func (l *Leaser) Snapshot() stream.Solution {
	assigns := l.alg.assignments()
	out := make([]stream.Assignment, len(assigns))
	for i, a := range assigns {
		out[i] = streamAssignment(a)
	}
	return stream.Solution{Leases: l.log.Leases(), Assignments: out}
}

func streamAssignment(a Assignment) stream.Assignment {
	return stream.Assignment{Item: a.Facility, K: a.K, Cost: a.Dist}
}
