package reusable

import (
	"fmt"

	"leasing/internal/stream"
)

// Leaser adapts the reusable-resource allocator to the unified stream
// protocol. Items are capacity units; every request produces exactly one
// assignment — (unit, lease type, 0) for a grant, (-1, -1, 0) for a
// rejection — so a Solution carries a positional verdict per request
// that Verify can replay against the instance.
type Leaser struct {
	alg     *Online
	log     *stream.Journal[stream.ItemLease]
	assigns []stream.Assignment // one per request, in arrival order
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps an allocator as a stream.Leaser consuming Use events.
func NewLeaser(alg *Online) *Leaser {
	return &Leaser{alg: alg, log: stream.NewJournal(alg.BoughtSince, stream.Identity)}
}

// Observe implements stream.Leaser. It accepts Use payloads only.
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.Use)
	if !ok {
		return stream.Decision{}, fmt.Errorf("reusable: unsupported payload %T", ev.Payload)
	}
	unit, ktype, cost, err := l.alg.Grant(ev.Time, p.Dur)
	if err != nil {
		return stream.Decision{}, err
	}
	d := l.log.Decision(l.alg.TotalCost())
	// The grant's own sum: the total's growth can round differently.
	d.Cost = cost
	d.Assignments = []stream.Assignment{{Item: unit, K: ktype, Cost: 0}}
	l.assigns = append(l.assigns, d.Assignments...)
	return d, nil
}

// Cost implements stream.Leaser; provisioning is pure leasing cost.
func (l *Leaser) Cost() stream.CostBreakdown {
	return stream.CostBreakdown{Lease: l.alg.TotalCost()}
}

// Snapshot implements stream.Leaser.
func (l *Leaser) Snapshot() stream.Solution {
	return stream.Solution{Leases: l.log.Leases(), Assignments: append([]stream.Assignment{}, l.assigns...)}
}
