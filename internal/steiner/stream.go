package steiner

import (
	"fmt"

	"leasing/internal/core"
	"leasing/internal/lease"
	"leasing/internal/stream"
)

// Leaser adapts the composed Steiner-tree-leasing algorithm to the
// unified stream protocol. Items are edge indices; each Connect payload is
// one communication request.
type Leaser struct {
	alg *Online
	log *stream.Journal[core.ItemLease]
}

var _ stream.Leaser = (*Leaser)(nil)

// NewLeaser wraps a Steiner-tree-leasing algorithm as a stream.Leaser.
func NewLeaser(alg *Online) *Leaser {
	return &Leaser{alg: alg, log: stream.NewJournal(alg.BoughtSince, stream.Identity)}
}

// Observe implements stream.Leaser. It accepts Connect payloads.
func (l *Leaser) Observe(ev stream.Event) (stream.Decision, error) {
	p, ok := ev.Payload.(stream.Connect)
	if !ok {
		return stream.Decision{}, fmt.Errorf("steiner: unsupported payload %T", ev.Payload)
	}
	if err := l.alg.Serve(Request{Time: ev.Time, S: p.S, T: p.T}); err != nil {
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

// Events converts requests into Connect events.
func Events(reqs []Request) []stream.Event {
	out := make([]stream.Event, len(reqs))
	for i, r := range reqs {
		out[i] = stream.Event{Time: r.Time, Payload: stream.Connect{S: r.S, T: r.T}}
	}
	return out
}

// VerifySolution checks a set of edge-lease triples serves every request
// of the instance: at each request's step, its terminals must be connected
// by edges holding an active lease. It is the snapshot-level feasibility
// oracle of the stream protocol (the Online type's VerifyFeasible checks
// the same property against its own internal state).
func VerifySolution(inst *Instance, leases []core.ItemLease) error {
	stores := make([]*lease.Store, inst.G.M())
	for e := range stores {
		stores[e] = lease.NewStore(inst.Cfg)
	}
	for _, il := range leases {
		if il.Item < 0 || il.Item >= inst.G.M() {
			return fmt.Errorf("steiner: lease %+v names edge outside [0,%d)", il, inst.G.M())
		}
		if il.K < 0 || il.K >= inst.Cfg.K() {
			return fmt.Errorf("steiner: lease %+v has type outside [0,%d)", il, inst.Cfg.K())
		}
		stores[il.Item].Buy(lease.Lease{K: il.K, Start: il.Start})
	}
	for i, r := range inst.Requests {
		p, err := inst.G.ShortestPath(r.S, r.T, func(e int) float64 {
			if stores[e].Covers(r.Time) {
				return 0
			}
			return 1
		})
		if err != nil || p.Cost != 0 {
			return fmt.Errorf("steiner: request %d (%d,%d) at %d not connected by leased edges", i, r.S, r.T, r.Time)
		}
	}
	return nil
}
