package leasing

// The unified streaming Leaser API. The thesis presents every problem in
// this repository as one framework — demands arrive online, the algorithm
// buys item-lease triples (i, k, t) — and this file is that framework as
// the package's primary interface: every online algorithm is constructible
// as a Leaser consuming Events and producing Decisions, and the generic
// driver (Replay, Interleave) runs any of them over any demand stream with
// per-step cost curves and ratio-vs-offline tracking. The per-problem
// constructors in parking.go, setcover.go, facility.go, deadline.go and
// network.go remain available for direct, domain-typed use.

import (
	"math/rand"

	"leasing/internal/deadline"
	"leasing/internal/facility"
	"leasing/internal/parking"
	"leasing/internal/setcover"
	"leasing/internal/steiner"
	"leasing/internal/stream"
)

// Event is one online demand: a timestamp plus a domain payload. Build
// events with the XxxEvent constructors or the XxxEvents batch helpers.
type Event = stream.Event

// Payload is the domain-specific part of an Event; the concrete types are
// the XxxPayload aliases below.
type Payload = stream.Payload

// DayPayload marks a parking-permit demand (the event's day needs a
// lease).
type DayPayload = stream.Day

// ElementPayload is a set-multicover demand (element, multiplicity).
type ElementPayload = stream.Element

// WindowPayload is a leasing-with-deadlines demand (slack D).
type WindowPayload = stream.Window

// ElementWindowPayload is an SCLD demand (element, slack D).
type ElementWindowPayload = stream.ElementWindow

// BatchPayload is a facility-leasing step (the arriving clients).
type BatchPayload = stream.Batch

// ConnectPayload is a Steiner-tree-leasing request (terminals S, T).
type ConnectPayload = stream.Connect

// UsePayload is a reusable-resource demand (usage duration Dur).
type UsePayload = stream.Use

// Decision is a Leaser's response to one Event: the item-lease triples
// newly bought, the assignments newly made, and the incremental cost.
type Decision = stream.Decision

// CostBreakdown splits a Leaser's cumulative cost into leasing and
// service (e.g. connection) parts.
type CostBreakdown = stream.CostBreakdown

// Solution is a snapshot of everything a Leaser bought and assigned, in
// deterministic order.
type Solution = stream.Solution

// ItemLease is the triple (i, k, t): item i leased with type k from t.
// The item index is domain-specific (0 for single-resource problems, the
// set/site/edge index otherwise).
type ItemLease = stream.ItemLease

// Assignment records one service decision: the client (in arrival order)
// served by item Item under lease type K at service cost Cost.
type Assignment = stream.Assignment

// Leaser is the unified protocol implemented by every online algorithm:
// Observe consumes one demand and returns what was bought for it, Cost
// reports cumulative totals, Snapshot returns the solution so far.
type Leaser = stream.Leaser

// StreamRun is the result of Replay: one Decision and one cost-curve point
// per event, plus the final cost breakdown.
type StreamRun = stream.Run

// CurvePoint is one point of a replay's cumulative cost curve.
type CurvePoint = stream.CurvePoint

// DayEvent builds a parking-permit demand on day t.
func DayEvent(t int64) Event { return Event{Time: t, Payload: stream.Day{}} }

// ElementEvent builds a set-multicover demand: element elem arrives at t
// needing coverage by p distinct sets.
func ElementEvent(t int64, elem, p int) Event {
	return Event{Time: t, Payload: stream.Element{Elem: elem, P: p}}
}

// WindowEvent builds a leasing-with-deadlines demand servable on any day
// of [t, t+d].
func WindowEvent(t, d int64) Event {
	return Event{Time: t, Payload: stream.Window{D: d}}
}

// ElementWindowEvent builds an SCLD demand: element elem must be covered
// by a set leased over some day of [t, t+d].
func ElementWindowEvent(t int64, elem int, d int64) Event {
	return Event{Time: t, Payload: stream.ElementWindow{Elem: elem, D: d}}
}

// BatchEvent builds a facility-leasing step: the clients arriving at t.
func BatchEvent(t int64, clients ...Point) Event {
	return Event{Time: t, Payload: stream.Batch{Clients: clients}}
}

// ConnectEvent builds a Steiner-tree-leasing request connecting s and u
// at step t.
func ConnectEvent(t int64, s, u int) Event {
	return Event{Time: t, Payload: stream.Connect{S: s, T: u}}
}

// DayEvents converts a sorted demand-day stream into events.
func DayEvents(days []int64) []Event { return stream.Days(days) }

// ElementEvents converts element arrivals into events.
func ElementEvents(arrivals []ElementArrival) []Event { return stream.Elements(arrivals) }

// WindowEvents converts deadline clients into events.
func WindowEvents(clients []DeadlineClient) []Event { return stream.Windows(clients) }

// BatchEvents converts a facility timeline (batches[t] arrives at step t)
// into one event per step.
func BatchEvents(batches [][]Point) []Event { return stream.Batches(batches) }

// ConnectEvents converts Steiner requests into events.
func ConnectEvents(reqs []SteinerRequest) []Event { return steiner.Events(reqs) }

// ElementWindowEvents converts SCLD arrivals into events.
func ElementWindowEvents(arrivals []SCLDArrival) []Event { return deadline.SCLDEvents(arrivals) }

// NewParkingStream wraps any parking-permit algorithm (deterministic,
// randomized or predictive) as a unified Leaser consuming Day events.
// Each Decision is the tail of the algorithm's BoughtSince log, so an
// implementation must append every purchase to it.
func NewParkingStream(alg ParkingPermitAlgorithm) Leaser { return parking.NewLeaser(alg) }

// NewSetCoverStream builds the Chapter 3 randomized algorithm for inst as
// a unified Leaser consuming Element events.
func NewSetCoverStream(inst *SetCoverInstance, rng *rand.Rand) (Leaser, error) {
	alg, err := setcover.NewOnline(inst, rng, setcover.Options{})
	if err != nil {
		return nil, err
	}
	return setcover.NewLeaser(alg), nil
}

// NewFacilityStream builds the Chapter 4 primal-dual algorithm for inst as
// a unified Leaser consuming Batch events, under the same rule as
// NewFacilityLeaser: clients bid over the current l_max round only.
func NewFacilityStream(inst *FacilityInstance) (Leaser, error) {
	alg, err := facility.NewOnline(inst, facility.Options{})
	if err != nil {
		return nil, err
	}
	return facility.NewLeaser(alg), nil
}

// NewDeadlineStream builds the Chapter 5 OLD primal-dual algorithm as a
// unified Leaser consuming Window events.
func NewDeadlineStream(cfg *LeaseConfig) (Leaser, error) {
	alg, err := deadline.NewOnline(cfg)
	if err != nil {
		return nil, err
	}
	return deadline.NewLeaser(alg), nil
}

// NewSCLDStream builds the Section 5.5 randomized SCLD algorithm as a
// unified Leaser consuming ElementWindow events.
func NewSCLDStream(inst *SCLDInstance, rng *rand.Rand) (Leaser, error) {
	alg, err := deadline.NewSCLDOnline(inst, rng)
	if err != nil {
		return nil, err
	}
	return deadline.NewSCLDStream(alg), nil
}

// NewSteinerStream builds the composed Steiner-tree-leasing algorithm as a
// unified Leaser consuming Connect events.
func NewSteinerStream(inst *SteinerInstance) (Leaser, error) {
	alg, err := steiner.NewOnline(inst)
	if err != nil {
		return nil, err
	}
	return steiner.NewLeaser(alg), nil
}

// Replay feeds every event through the Leaser in order and records the
// decisions, the per-step cumulative cost curve, and the final breakdown.
// It is the one generic code path every demand stream takes — the
// experiment harness and cmd/leasesim both run on it.
func Replay(l Leaser, events []Event) (*StreamRun, error) {
	return stream.Replay(l, events)
}

// Interleave deterministically merges several event streams (each sorted
// by time) into one: ordered by time, ties broken by stream index, then
// by within-stream order.
func Interleave(streams ...[]Event) []Event { return stream.Interleave(streams...) }

// SolutionLeases projects a snapshot onto the single-resource timeline:
// the (type, start) leases of the parking-permit and deadline problems.
func SolutionLeases(sol Solution) []Lease {
	out := make([]Lease, len(sol.Leases))
	for i, il := range sol.Leases {
		out[i] = Lease{K: il.K, Start: il.Start}
	}
	return out
}

// SolutionSetLeases projects a snapshot onto set-lease triples.
func SolutionSetLeases(sol Solution) []SetLease {
	out := make([]SetLease, len(sol.Leases))
	for i, il := range sol.Leases {
		out[i] = SetLease{Set: il.Item, K: il.K, Start: il.Start}
	}
	return out
}

// SolutionFacilityLeases projects a snapshot onto facility-lease triples.
func SolutionFacilityLeases(sol Solution) []FacilityLease {
	out := make([]FacilityLease, len(sol.Leases))
	for i, il := range sol.Leases {
		out[i] = FacilityLease{Facility: il.Item, K: il.K, Start: il.Start}
	}
	return out
}

// SolutionFacilityAssignments projects a snapshot's assignments onto the
// facility domain's per-client assignment records.
func SolutionFacilityAssignments(sol Solution) []FacilityAssignment {
	out := make([]FacilityAssignment, len(sol.Assignments))
	for i, a := range sol.Assignments {
		out[i] = FacilityAssignment{Facility: a.Item, K: a.K, Dist: a.Cost}
	}
	return out
}
