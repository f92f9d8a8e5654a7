// Package stream defines the unified event-driven protocol every online
// leasing algorithm in this repository speaks. The thesis (Section 2.3)
// presents parking permits, set multicover leasing, facility leasing,
// leasing with deadlines and the network extensions as instantiations of
// one framework — demands arrive online and the algorithm buys item-lease
// triples (i, k, t) — and this package is that framework as an API:
//
//   - an Event is one demand (a timestamp plus a domain payload),
//   - a Decision is what the algorithm bought in response (new triples,
//     new assignments, and the incremental cost of the step),
//   - a Leaser is any online algorithm consuming Events and producing
//     Decisions, with cumulative cost accounting and a solution snapshot.
//
// Each domain package (internal/parking, internal/setcover,
// internal/facility, internal/deadline, internal/steiner,
// internal/reusable) adapts its native algorithm to this protocol under
// one contract. The algorithm keeps an append-only purchase log, since it
// never refunds a triple; the Decision for an event is the log's tail
// since the previous event, and the Snapshot is the whole log, sorted.
// Journal implements that contract once for every adapter. The generic
// driver in this package (Replay, Interleave) then works over every
// domain uniformly, which is what the experiment harness, cmd/leasesim
// and the conformance suite build on.
package stream

import (
	"cmp"
	"slices"

	"leasing/internal/core"
	"leasing/internal/metric"
)

// Event is one online demand: a timestamp plus a domain payload. Events
// must be fed to a Leaser in non-decreasing time order.
type Event struct {
	// Time is the arrival step of the demand.
	Time int64
	// Payload carries the domain-specific part of the demand. A nil
	// payload is equivalent to Day{} (a bare timestamped demand).
	Payload Payload
}

// Payload is the domain-specific part of an Event. Exactly the payload
// types below implement it; a Leaser rejects payload types it does not
// understand with ErrPayload-wrapped errors.
type Payload interface{ payload() }

// Day is the parking-permit payload: a demand needing a valid lease on the
// event's day. It carries no extra data.
type Day struct{}

// Element is the set-multicover payload: element Elem arrives and must be
// covered by P distinct leased sets.
type Element struct {
	Elem int
	P    int
}

// Window is the leasing-with-deadlines payload: the demand may be served
// on any day of [Time, Time+D].
type Window struct {
	D int64
}

// ElementWindow is the SCLD payload: element Elem must be covered by a set
// leased over some day of [Time, Time+D].
type ElementWindow struct {
	Elem int
	D    int64
}

// Batch is the facility-leasing payload: the clients arriving at this step,
// each of which must be connected to a leased facility.
type Batch struct {
	Clients []metric.Point
}

// Connect is the Steiner-tree-leasing payload: terminals S and T must be
// connected by leased edges at the event's step.
type Connect struct {
	S, T int
}

// Use is the reusable-resource payload: a request arriving at the event's
// step that, if accepted, occupies one capacity unit for Dur steps and
// then returns it to the pool. Dur values below 1 are treated as 1.
type Use struct {
	Dur int64
}

func (Day) payload()           {}
func (Element) payload()       {}
func (Window) payload()        {}
func (ElementWindow) payload() {}
func (Batch) payload()         {}
func (Connect) payload()       {}
func (Use) payload()           {}

// ItemLease is the triple (i, k, t) of the thesis' infrastructure leasing
// set: item Item leased with type K from Start. The item index is
// domain-specific — 0 for the single-resource problems (parking,
// deadlines), the set index for set cover, the site index for facility
// leasing, the edge index for Steiner tree leasing.
type ItemLease = core.ItemLease

// Assignment records one service decision next to the leases: the client
// (implicitly, in arrival order) was served by item Item under lease type
// K at service cost Cost (the connection distance in facility leasing).
type Assignment struct {
	Item int
	K    int
	Cost float64
}

// Decision is a Leaser's response to one Event: the triples newly bought,
// the assignments newly made, and the incremental total cost of the step.
// Leases and Assignments are in deterministic order (triples sorted by
// item, type, start; assignments in arrival order).
type Decision struct {
	Leases      []ItemLease
	Assignments []Assignment
	// Cost is the increase of Cost().Total() caused by this event.
	Cost float64
}

// CostBreakdown splits a Leaser's cumulative cost into leasing and service
// parts. Service is zero for the pure covering problems; facility leasing
// reports connection cost there.
type CostBreakdown struct {
	Lease   float64
	Service float64
}

// Total returns the combined cost.
func (c CostBreakdown) Total() float64 { return c.Lease + c.Service }

// Solution is a snapshot of everything a Leaser has bought and assigned so
// far, in deterministic order.
type Solution struct {
	Leases      []ItemLease
	Assignments []Assignment
}

// Leaser is the unified protocol: demands stream in as Events, purchases
// stream out as Decisions. Implementations are the per-domain adapters;
// they reject events whose payload type they do not understand and
// require non-decreasing event times. Each serves its algorithm's
// append-only purchase log through a Journal: a Decision is the log's
// tail since the previous event, and a Snapshot is the whole log, sorted.
type Leaser interface {
	// Observe processes one demand and returns what was bought for it.
	Observe(Event) (Decision, error)
	// Cost returns the cumulative cost of everything bought so far.
	Cost() CostBreakdown
	// Snapshot returns the current solution for verification.
	Snapshot() Solution
}

// SortItemLeases orders triples by (item, type, start), the canonical
// order of Decision and Solution lease lists.
func SortItemLeases(ls []ItemLease) {
	slices.SortFunc(ls, func(a, b ItemLease) int {
		if c := cmp.Compare(a.Item, b.Item); c != 0 {
			return c
		}
		if c := cmp.Compare(a.K, b.K); c != 0 {
			return c
		}
		return cmp.Compare(a.Start, b.Start)
	})
}
