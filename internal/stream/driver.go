package stream

import (
	"fmt"

	"leasing/internal/metric"
	"leasing/internal/workload"
)

// CurvePoint is one point of a replay's cost curve: the cumulative total
// cost after the event at Time was processed.
type CurvePoint struct {
	Time int64
	Cost float64
}

// Run is the result of replaying an event stream through a Leaser: one
// Decision and one cost-curve point per event, plus the final breakdown.
type Run struct {
	Decisions []Decision
	Curve     []CurvePoint
	Final     CostBreakdown
}

// Total returns the final cumulative cost.
func (r *Run) Total() float64 { return r.Final.Total() }

// DecisionCostSum sums the per-event incremental costs; up to floating
// rounding it equals Total() (the conformance suite asserts this).
func (r *Run) DecisionCostSum() float64 {
	var sum float64
	for _, d := range r.Decisions {
		sum += d.Cost
	}
	return sum
}

// Ratio returns Total()/offline, the empirical competitive ratio of the
// run against an offline baseline.
func (r *Run) Ratio(offline float64) (float64, error) {
	if offline <= 0 {
		return 0, fmt.Errorf("stream: non-positive offline baseline %v", offline)
	}
	return r.Total() / offline, nil
}

// RatioCurve returns the per-event cumulative-cost-to-baseline curve, the
// "ratio vs offline" trajectory of one replay.
func (r *Run) RatioCurve(offline float64) ([]float64, error) {
	if offline <= 0 {
		return nil, fmt.Errorf("stream: non-positive offline baseline %v", offline)
	}
	out := make([]float64, len(r.Curve))
	for i, p := range r.Curve {
		out[i] = p.Cost / offline
	}
	return out, nil
}

// Recorder drives one Leaser event by event: it enforces non-decreasing
// event times, counts events, and (when keeping) accumulates the decision
// list and cumulative cost curve a Replay returns. It is the incremental
// core shared by Replay and by the multi-tenant engine
// (internal/engine), which owns one Recorder per session — that sharing
// is what makes an engine session's recorded run byte-identical to a
// single-threaded Replay of the same events.
type Recorder struct {
	keep      bool
	n         int
	last      int64
	decisions []Decision
	curve     []CurvePoint
}

// NewRecorder returns an empty Recorder. With keep false it still
// enforces the protocol and counts events but retains no per-event
// output, so a long-lived session grows only with what its Leaser
// keeps: its purchases and assignments, not its events.
func NewRecorder(keep bool) *Recorder { return &Recorder{keep: keep} }

// Observe checks the event's time against the previous one, feeds it
// through the Leaser, and records the outcome. On error the Leaser is
// presumed corrupted and the Recorder must not be fed further events.
func (r *Recorder) Observe(l Leaser, ev Event) (Decision, error) {
	if r.n > 0 && ev.Time < r.last {
		return Decision{}, fmt.Errorf("stream: event %d at time %d precedes %d", r.n, ev.Time, r.last)
	}
	r.last = ev.Time
	d, err := l.Observe(ev)
	if err != nil {
		return Decision{}, fmt.Errorf("stream: event %d (t=%d): %w", r.n, ev.Time, err)
	}
	r.n++
	if r.keep {
		r.decisions = append(r.decisions, d)
		r.curve = append(r.curve, CurvePoint{Time: ev.Time, Cost: l.Cost().Total()})
	}
	return d, nil
}

// Events returns the number of events observed so far.
func (r *Recorder) Events() int { return r.n }

// Recorded returns the accumulated decisions and curve. The returned
// slice headers are stable snapshots: later Observes append past their
// length without disturbing the prefix, so a snapshot taken between
// events stays valid while recording continues.
func (r *Recorder) Recorded() ([]Decision, []CurvePoint) {
	return r.decisions[:len(r.decisions):len(r.decisions)],
		r.curve[:len(r.curve):len(r.curve)]
}

// Run packages the recorded output with the Leaser's final cost.
func (r *Recorder) Run(l Leaser) *Run {
	ds, cv := r.Recorded()
	return &Run{Decisions: ds, Curve: cv, Final: l.Cost()}
}

// Replay feeds every event through the Leaser in order and records the
// decision and cost curve. It is the single generic code path every
// domain's online runs go through — the experiment harness, cmd/leasesim
// and the conformance suite all call it. Event times must be
// non-decreasing; the first violation is reported before the Leaser sees
// the event.
func Replay(l Leaser, events []Event) (*Run, error) {
	rec := NewRecorder(true)
	for _, ev := range events {
		if _, err := rec.Observe(l, ev); err != nil {
			return nil, err
		}
	}
	return rec.Run(l), nil
}

// Interleave merges several event streams (each sorted by time) into one
// deterministic stream: events are ordered by time, ties broken by stream
// index and then by within-stream order. It is how multiple demand sources
// are fed to a single Leaser reproducibly.
func Interleave(streams ...[]Event) []Event {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	out := make([]Event, 0, n)
	idx := make([]int, len(streams))
	for len(out) < n {
		best := -1
		for s := range streams {
			if idx[s] >= len(streams[s]) {
				continue
			}
			if best < 0 || streams[s][idx[s]].Time < streams[best][idx[best]].Time {
				best = s
			}
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
}

// Days converts a sorted demand-day stream into parking-permit events.
func Days(days []int64) []Event {
	out := make([]Event, len(days))
	for i, t := range days {
		out[i] = Event{Time: t, Payload: Day{}}
	}
	return out
}

// Elements converts element arrivals into set-multicover events.
func Elements(arrivals []workload.ElementArrival) []Event {
	out := make([]Event, len(arrivals))
	for i, a := range arrivals {
		out[i] = Event{Time: a.T, Payload: Element{Elem: a.Elem, P: a.P}}
	}
	return out
}

// Windows converts deadline clients into leasing-with-deadlines events.
func Windows(clients []workload.DeadlineClient) []Event {
	out := make([]Event, len(clients))
	for i, c := range clients {
		out[i] = Event{Time: c.T, Payload: Window{D: c.D}}
	}
	return out
}

// Batches converts a facility-leasing timeline (Batches[t] arrives at step
// t) into one Batch event per step, empty steps included so the cost curve
// has one point per step.
func Batches(batches [][]metric.Point) []Event {
	out := make([]Event, len(batches))
	for t, b := range batches {
		out[t] = Event{Time: int64(t), Payload: Batch{Clients: b}}
	}
	return out
}
