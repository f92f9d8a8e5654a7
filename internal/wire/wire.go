// Package wire is the single source of truth for the lease service's
// HTTP/JSON protocol: the JSON representations of events, decisions,
// runs, solutions and metrics, the open-session specs that let a remote
// tenant describe a full problem instance, the error codes with their
// HTTP status mapping, and the endpoint declarations the server routes
// on. internal/server serves these types, internal/client speaks them,
// and docs/API.md is generated from the declarations in this package by
// cmd/leasereport — so the implementation and the documentation cannot
// drift apart.
//
// Each job has one encoding. An event stream is a JSON array of Event
// (ReadEvents decodes it): the submit endpoint's default body and the
// trace file cmd/leasegen writes. A recorded run is JSON. The binary
// framing (binary.go) is the submit hot path's alternative event
// encoding, and the replication endpoint's record framing.
//
// Conversions to and from the in-process protocol (internal/stream) are
// exact: encoding/json renders float64 with the shortest round-trippable
// representation and the slice fields of Decision, Run and Solution
// distinguish null from [], so a Run that crosses the wire decodes back
// byte-identical (under fmt %#v) to the stream.Run it came from. That
// exactness is what lets remote parity checks compare a session served
// through cmd/leased against a local single-threaded Replay.
package wire

import (
	"encoding/json"
	"fmt"
	"io"

	"leasing/internal/engine"
	"leasing/internal/metric"
	"leasing/internal/stream"
)

// Payload kinds of Event.Kind, one per stream payload type.
const (
	KindDay           = "day"
	KindElement       = "element"
	KindWindow        = "window"
	KindElementWindow = "element_window"
	KindBatch         = "batch"
	KindConnect       = "connect"
	KindUse           = "use"
)

// Point is a planar location (the metric space of facility leasing).
type Point struct {
	X float64 `json:"x" doc:"x coordinate"`
	Y float64 `json:"y" doc:"y coordinate"`
}

// Event is one online demand on the wire: a timestamp, a payload kind,
// and the kind's fields (all others are ignored). Events of one tenant
// must be submitted in non-decreasing time order.
type Event struct {
	Time int64  `json:"time" doc:"arrival step of the demand (non-decreasing per tenant)"`
	Kind string `json:"kind" doc:"payload kind: day, element, window, element_window, batch, connect or use"`
	// Element fields.
	Elem int `json:"elem,omitempty" doc:"element index (kinds element and element_window)"`
	P    int `json:"p,omitempty" doc:"cover multiplicity (kind element; defaults to 1)"`
	// Window fields.
	D int64 `json:"d,omitempty" doc:"deadline slack: servable on [time, time+d] (kinds window and element_window)"`
	// Batch fields.
	Clients []Point `json:"clients,omitempty" doc:"arriving clients (kind batch; may be empty for an idle step)"`
	// Connect fields.
	S int `json:"s,omitempty" doc:"first terminal (kind connect)"`
	U int `json:"u,omitempty" doc:"second terminal (kind connect)"`
	// Use fields.
	Dur int64 `json:"dur,omitempty" doc:"usage duration in steps (kind use; defaults to 1)"`
}

// FromStreamEvent converts an in-process event to its wire form.
func FromStreamEvent(ev stream.Event) (Event, error) {
	out := Event{Time: ev.Time}
	switch p := ev.Payload.(type) {
	case nil, stream.Day:
		out.Kind = KindDay
	case stream.Element:
		out.Kind = KindElement
		out.Elem, out.P = p.Elem, p.P
	case stream.Window:
		out.Kind = KindWindow
		out.D = p.D
	case stream.ElementWindow:
		out.Kind = KindElementWindow
		out.Elem, out.D = p.Elem, p.D
	case stream.Batch:
		out.Kind = KindBatch
		out.Clients = make([]Point, len(p.Clients))
		for i, c := range p.Clients {
			out.Clients[i] = Point{X: c.X, Y: c.Y}
		}
	case stream.Connect:
		out.Kind = KindConnect
		out.S, out.U = p.S, p.T
	case stream.Use:
		out.Kind = KindUse
		out.Dur = p.Dur
	default:
		return Event{}, fmt.Errorf("wire: unsupported payload %T", ev.Payload)
	}
	return out, nil
}

// FromStreamEvents converts a whole stream.
func FromStreamEvents(evs []stream.Event) ([]Event, error) {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		w, err := FromStreamEvent(ev)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		out[i] = w
	}
	return out, nil
}

// Stream converts a wire event back to its in-process form.
func (e Event) Stream() (stream.Event, error) {
	out := stream.Event{Time: e.Time}
	switch e.Kind {
	case KindDay:
		out.Payload = stream.Day{}
	case KindElement:
		out.Payload = stream.Element{Elem: e.Elem, P: orOne(e.P)}
	case KindWindow:
		out.Payload = stream.Window{D: e.D}
	case KindElementWindow:
		out.Payload = stream.ElementWindow{Elem: e.Elem, D: e.D}
	case KindBatch:
		var clients []metric.Point
		if e.Clients != nil {
			clients = make([]metric.Point, len(e.Clients))
			for i, c := range e.Clients {
				clients[i] = metric.Point{X: c.X, Y: c.Y}
			}
		}
		out.Payload = stream.Batch{Clients: clients}
	case KindConnect:
		out.Payload = stream.Connect{S: e.S, T: e.U}
	case KindUse:
		out.Payload = stream.Use{Dur: orOne(e.Dur)}
	default:
		return stream.Event{}, fmt.Errorf("wire: unknown event kind %q", e.Kind)
	}
	return out, nil
}

// orOne is the wire default of an element's p and a use's dur: absent
// (zero) reads as 1, and every other value is kept as sent.
func orOne[T int | int64](v T) T {
	if v == 0 {
		return 1
	}
	return v
}

// StreamEvents converts a wire event slice back to in-process events.
func StreamEvents(evs []Event) ([]stream.Event, error) {
	out := make([]stream.Event, len(evs))
	for i, ev := range evs {
		s, err := ev.Stream()
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// ReadEvents decodes a JSON array of wire events — the submit
// endpoint's default body and cmd/leasegen's trace format — converts
// each with Event.Stream, and rejects a time regression within the
// array, so a caller has the whole body checked before acting on any of
// it.
func ReadEvents(r io.Reader) ([]stream.Event, error) {
	var wevs []Event
	if err := json.NewDecoder(r).Decode(&wevs); err != nil {
		return nil, fmt.Errorf("decode event array: %w", err)
	}
	evs, err := StreamEvents(wevs)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			return nil, fmt.Errorf("event %d (t=%d) precedes event %d (t=%d)",
				i, evs[i].Time, i-1, evs[i-1].Time)
		}
	}
	return evs, nil
}

// ItemLease is the bought triple (item, type, start).
type ItemLease struct {
	Item  int   `json:"item" doc:"item index (0 for single-resource domains; the set/site/edge index otherwise)"`
	K     int   `json:"k" doc:"lease type index into the session's configuration"`
	Start int64 `json:"start" doc:"first covered time step"`
}

// Assignment records one service decision (facility leasing's client
// connections).
type Assignment struct {
	Item int     `json:"item" doc:"serving item index"`
	K    int     `json:"k" doc:"lease type the client was served under"`
	Cost float64 `json:"cost" doc:"service (connection) cost of the assignment"`
}

// Decision is what the algorithm bought in response to one event. The
// lease and assignment lists are null (not []) when nothing was bought,
// preserving exact round-trips against the in-process Decision.
type Decision struct {
	Leases      []ItemLease  `json:"leases" doc:"triples newly bought by this event (null when none)"`
	Assignments []Assignment `json:"assignments" doc:"assignments newly made by this event (null when none)"`
	Cost        float64      `json:"cost" doc:"incremental total cost of the step"`
}

// CurvePoint is one point of a run's cumulative cost curve.
type CurvePoint struct {
	Time int64   `json:"time" doc:"event timestamp"`
	Cost float64 `json:"cost" doc:"cumulative total cost after the event"`
}

// CostBreakdown splits cumulative cost into leasing and service parts.
type CostBreakdown struct {
	Lease   float64 `json:"lease" doc:"cumulative leasing cost"`
	Service float64 `json:"service" doc:"cumulative service (connection) cost"`
	Total   float64 `json:"total" doc:"lease + service"`
}

// FromStreamCost converts a stream cost breakdown to its wire form.
func FromStreamCost(c stream.CostBreakdown) CostBreakdown {
	return CostBreakdown{Lease: c.Lease, Service: c.Service, Total: c.Total()}
}

// Stream converts the breakdown back (Total is derived, not trusted).
func (c CostBreakdown) Stream() stream.CostBreakdown {
	return stream.CostBreakdown{Lease: c.Lease, Service: c.Service}
}

// Solution is a snapshot of everything bought and assigned so far.
type Solution struct {
	Leases      []ItemLease  `json:"leases" doc:"all triples bought so far, sorted by (item, type, start)"`
	Assignments []Assignment `json:"assignments" doc:"all assignments made so far, in arrival order"`
}

// Run is a session's recorded output: one decision and one curve point
// per event, plus the final cost breakdown. It requires the daemon to
// run with recording enabled.
type Run struct {
	Decisions []Decision    `json:"decisions" doc:"one entry per processed event"`
	Curve     []CurvePoint  `json:"curve" doc:"cumulative total cost after each event"`
	Final     CostBreakdown `json:"final" doc:"final cost breakdown"`
}

func fromStreamLeases(ls []stream.ItemLease) []ItemLease {
	if ls == nil {
		return nil
	}
	out := make([]ItemLease, len(ls))
	for i, l := range ls {
		out[i] = ItemLease{Item: l.Item, K: l.K, Start: l.Start}
	}
	return out
}

func toStreamLeases(ls []ItemLease) []stream.ItemLease {
	if ls == nil {
		return nil
	}
	out := make([]stream.ItemLease, len(ls))
	for i, l := range ls {
		out[i] = stream.ItemLease{Item: l.Item, K: l.K, Start: l.Start}
	}
	return out
}

func fromStreamAssignments(as []stream.Assignment) []Assignment {
	if as == nil {
		return nil
	}
	out := make([]Assignment, len(as))
	for i, a := range as {
		out[i] = Assignment{Item: a.Item, K: a.K, Cost: a.Cost}
	}
	return out
}

func toStreamAssignments(as []Assignment) []stream.Assignment {
	if as == nil {
		return nil
	}
	out := make([]stream.Assignment, len(as))
	for i, a := range as {
		out[i] = stream.Assignment{Item: a.Item, K: a.K, Cost: a.Cost}
	}
	return out
}

// FromStreamSolution converts a snapshot to its wire form.
func FromStreamSolution(s stream.Solution) Solution {
	return Solution{
		Leases:      fromStreamLeases(s.Leases),
		Assignments: fromStreamAssignments(s.Assignments),
	}
}

// Stream converts the snapshot back to its in-process form.
func (s Solution) Stream() stream.Solution {
	return stream.Solution{
		Leases:      toStreamLeases(s.Leases),
		Assignments: toStreamAssignments(s.Assignments),
	}
}

// FromStreamRun converts a recorded run to its wire form.
func FromStreamRun(r *stream.Run) *Run {
	out := &Run{Final: FromStreamCost(r.Final)}
	if r.Decisions != nil {
		out.Decisions = make([]Decision, len(r.Decisions))
		for i, d := range r.Decisions {
			out.Decisions[i] = Decision{
				Leases:      fromStreamLeases(d.Leases),
				Assignments: fromStreamAssignments(d.Assignments),
				Cost:        d.Cost,
			}
		}
	}
	if r.Curve != nil {
		out.Curve = make([]CurvePoint, len(r.Curve))
		for i, p := range r.Curve {
			out.Curve[i] = CurvePoint{Time: p.Time, Cost: p.Cost}
		}
	}
	return out
}

// Stream converts the run back to its in-process form.
func (r *Run) Stream() *stream.Run {
	out := &stream.Run{Final: r.Final.Stream()}
	if r.Decisions != nil {
		out.Decisions = make([]stream.Decision, len(r.Decisions))
		for i, d := range r.Decisions {
			out.Decisions[i] = stream.Decision{
				Leases:      toStreamLeases(d.Leases),
				Assignments: toStreamAssignments(d.Assignments),
				Cost:        d.Cost,
			}
		}
	}
	if r.Curve != nil {
		out.Curve = make([]stream.CurvePoint, len(r.Curve))
		for i, p := range r.Curve {
			out.Curve[i] = stream.CurvePoint{Time: p.Time, Cost: p.Cost}
		}
	}
	return out
}

// ShardMetrics is one engine shard's counter sample.
type ShardMetrics struct {
	Shard      int     `json:"shard" doc:"shard index"`
	Sessions   int     `json:"sessions" doc:"open sessions owned by the shard"`
	Events     int64   `json:"events" doc:"events processed (cumulative)"`
	Batches    int64   `json:"batches" doc:"processing wakes; events/batches is the batching factor"`
	Dropped    int64   `json:"dropped" doc:"events dropped: unknown, closed or failed tenant"`
	QueueDepth int     `json:"queue_depth" doc:"queued operations at sample time (instantaneous)"`
	Cost       float64 `json:"cost" doc:"cumulative cost of the shard's decisions"`
}

// Metrics aggregates the per-shard counters engine-wide.
type Metrics struct {
	Sessions   int            `json:"sessions" doc:"open sessions engine-wide"`
	Events     int64          `json:"events" doc:"events processed engine-wide (cumulative)"`
	Batches    int64          `json:"batches" doc:"processing wakes engine-wide"`
	Dropped    int64          `json:"dropped" doc:"events dropped engine-wide"`
	QueueDepth int            `json:"queue_depth" doc:"queued operations engine-wide (instantaneous)"`
	Cost       float64        `json:"cost" doc:"cumulative cost engine-wide"`
	Shards     []ShardMetrics `json:"shards" doc:"per-shard samples, in shard order"`
}

// FromEngineMetrics converts an engine metrics sample to its wire form.
// This and Metrics.Engine are the only engine<->wire metrics mappings,
// shared by the server and by report-building clients, so the two
// directions cannot drift apart.
func FromEngineMetrics(m engine.Metrics) Metrics {
	out := Metrics{
		Sessions: m.Sessions, Events: m.Events, Batches: m.Batches,
		Dropped: m.Dropped, QueueDepth: m.QueueDepth, Cost: m.Cost,
		Shards: make([]ShardMetrics, len(m.Shards)),
	}
	for i, sm := range m.Shards {
		out.Shards[i] = ShardMetrics{
			Shard: sm.Shard, Sessions: sm.Sessions, Events: sm.Events,
			Batches: sm.Batches, Dropped: sm.Dropped,
			QueueDepth: sm.QueueDepth, Cost: sm.Cost,
		}
	}
	return out
}

// Engine converts the sample back to the engine's own metrics type.
func (m Metrics) Engine() engine.Metrics {
	out := engine.Metrics{
		Sessions: m.Sessions, Events: m.Events, Batches: m.Batches,
		Dropped: m.Dropped, QueueDepth: m.QueueDepth, Cost: m.Cost,
		Shards: make([]engine.ShardMetrics, len(m.Shards)),
	}
	for i, sm := range m.Shards {
		out.Shards[i] = engine.ShardMetrics{
			Shard: sm.Shard, Sessions: sm.Sessions, Events: sm.Events,
			Batches: sm.Batches, Dropped: sm.Dropped,
			QueueDepth: sm.QueueDepth, Cost: sm.Cost,
		}
	}
	return out
}
