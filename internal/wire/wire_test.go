package wire

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"leasing/internal/metric"
	"leasing/internal/stream"
)

// TestEventRoundTrip feeds one event of every payload kind through
// wire conversion, a JSON round trip, and back, asserting the
// in-process event survives exactly.
func TestEventRoundTrip(t *testing.T) {
	events := []stream.Event{
		{Time: 0, Payload: stream.Day{}},
		{Time: 3, Payload: stream.Element{Elem: 7, P: 2}},
		{Time: 4, Payload: stream.Element{Elem: 0, P: 1}},
		{Time: 5, Payload: stream.Window{D: 9}},
		{Time: 6, Payload: stream.ElementWindow{Elem: 2, D: 4}},
		{Time: 7, Payload: stream.Batch{Clients: []metric.Point{{X: 1.5, Y: -2.25}, {X: 0.1, Y: 0.2}}}},
		{Time: 8, Payload: stream.Batch{}},
		{Time: 9, Payload: stream.Connect{S: 3, T: 11}},
	}
	wevs, err := FromStreamEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(wevs)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []Event
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := StreamEvents(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", back), fmt.Sprintf("%#v", events); got != want {
		t.Errorf("round trip diverged:\n got %s\nwant %s", got, want)
	}
}

// TestEventNilPayloadIsDay mirrors the stream contract: a nil payload
// is a bare day demand.
func TestEventNilPayloadIsDay(t *testing.T) {
	w, err := FromStreamEvent(stream.Event{Time: 5})
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != KindDay {
		t.Errorf("kind = %q, want %q", w.Kind, KindDay)
	}
}

// TestEventUnknownKind rejects undeclared kinds.
func TestEventUnknownKind(t *testing.T) {
	if _, err := (Event{Kind: "bogus"}).Stream(); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestElementDefaultMultiplicity: an element event without p covers
// once, so hand-written JSON need not spell the common case.
func TestElementDefaultMultiplicity(t *testing.T) {
	ev, err := (Event{Kind: KindElement, Elem: 3}).Stream()
	if err != nil {
		t.Fatal(err)
	}
	if p := ev.Payload.(stream.Element).P; p != 1 {
		t.Errorf("default multiplicity = %d, want 1", p)
	}
}

// TestRunRoundTrip pushes a run with nil and non-nil lists (and floats
// that exercise shortest-representation encoding) through JSON,
// asserting byte-identity under %#v — the exactness the remote parity
// checks rely on.
func TestRunRoundTrip(t *testing.T) {
	run := &stream.Run{
		Decisions: []stream.Decision{
			{Cost: 0},
			{
				Leases:      []stream.ItemLease{{Item: 2, K: 1, Start: 4}},
				Assignments: []stream.Assignment{{Item: 2, K: 1, Cost: 1.0 / 3.0}},
				Cost:        0.1 + 0.2,
			},
		},
		Curve: []stream.CurvePoint{{Time: 0, Cost: 0}, {Time: 1, Cost: 0.30000000000000004}},
		Final: stream.CostBreakdown{Lease: 1e-17, Service: 0.1},
	}
	buf, err := json.Marshal(FromStreamRun(run))
	if err != nil {
		t.Fatal(err)
	}
	var decoded Run
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", decoded.Stream()), fmt.Sprintf("%#v", run); got != want {
		t.Errorf("round trip diverged:\n got %s\nwant %s", got, want)
	}
}

// TestSolutionRoundTripPreservesEmptiness: null and [] are distinct on
// the wire, so nil-ness survives.
func TestSolutionRoundTripPreservesEmptiness(t *testing.T) {
	for _, sol := range []stream.Solution{
		{},
		{Leases: []stream.ItemLease{}},
		{Leases: []stream.ItemLease{{Item: 1}}, Assignments: []stream.Assignment{}},
	} {
		buf, err := json.Marshal(FromStreamSolution(sol))
		if err != nil {
			t.Fatal(err)
		}
		var decoded Solution
		if err := json.Unmarshal(buf, &decoded); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", decoded.Stream()), fmt.Sprintf("%#v", sol); got != want {
			t.Errorf("round trip diverged:\n got %s\nwant %s", got, want)
		}
	}
}

func validTypes() []LeaseType {
	return []LeaseType{{Length: 1, Cost: 1}, {Length: 4, Cost: 2.5}}
}

// TestBuildEveryDomain builds one leaser per domain and drives one
// well-formed event through it.
func TestBuildEveryDomain(t *testing.T) {
	cases := []struct {
		req OpenRequest
		ev  Event
	}{
		{OpenRequest{Domain: DomainParking, Types: validTypes()}, Event{Kind: KindDay}},
		{OpenRequest{Domain: DomainParkingRand, Types: validTypes(), Seed: 7}, Event{Kind: KindDay}},
		{OpenRequest{Domain: DomainDeadline, Types: validTypes()}, Event{Kind: KindWindow, D: 3}},
		{OpenRequest{
			Domain: DomainSetCover, Types: validTypes(), Seed: 7,
			SetCover: &SetCoverSpec{
				Elements: 2, Sets: [][]int{{0, 1}},
				Costs:    [][]float64{{1, 2.5}},
				Arrivals: []ElementArrival{{T: 0, Elem: 1, P: 1}},
			},
		}, Event{Kind: KindElement, Elem: 1, P: 1}},
		{OpenRequest{
			Domain: DomainSCLD, Types: validTypes(), Seed: 7,
			SCLD: &SCLDSpec{
				Elements: 2, Sets: [][]int{{0, 1}},
				Costs:    [][]float64{{1, 2.5}},
				Arrivals: []SCLDArrival{{T: 0, Elem: 0, D: 2}},
			},
		}, Event{Kind: KindElementWindow, Elem: 0, D: 2}},
		{OpenRequest{
			Domain: DomainFacility, Types: validTypes(),
			Facility: &FacilitySpec{
				Sites:   []Point{{X: 0, Y: 0}},
				Costs:   [][]float64{{1, 2.5}},
				Batches: [][]Point{{{X: 1, Y: 1}}},
			},
		}, Event{Kind: KindBatch, Clients: []Point{{X: 1, Y: 1}}}},
		{OpenRequest{
			Domain: DomainSteiner, Types: validTypes(),
			Steiner: &SteinerSpec{
				Vertices: 2, Edges: []Edge{{U: 0, V: 1, W: 1}},
				Requests: []ConnectRequest{{T: 0, S: 0, U: 1}},
			},
		}, Event{Kind: KindConnect, S: 0, U: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.req.Domain, func(t *testing.T) {
			lsr, err := tc.req.Build()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := tc.ev.Stream()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lsr.Observe(ev); err != nil {
				t.Fatalf("observe: %v", err)
			}
		})
	}
}

// TestBuildDeterministic: two builds of the same randomized spec replay
// identically — the reproducibility contract the open endpoint makes.
func TestBuildDeterministic(t *testing.T) {
	req := OpenRequest{
		Domain: DomainSetCover, Types: validTypes(), Seed: 42,
		SetCover: &SetCoverSpec{
			Elements: 4, Sets: [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
			Costs:    [][]float64{{1, 2.5}, {1.2, 2}, {0.8, 2.2}, {1, 2.4}},
			Arrivals: []ElementArrival{{T: 0, Elem: 0, P: 1}, {T: 1, Elem: 2, P: 2}, {T: 5, Elem: 1, P: 1}},
		},
	}
	events := []stream.Event{
		{Time: 0, Payload: stream.Element{Elem: 0, P: 1}},
		{Time: 1, Payload: stream.Element{Elem: 2, P: 2}},
		{Time: 5, Payload: stream.Element{Elem: 1, P: 1}},
	}
	replay := func() string {
		lsr, err := req.Build()
		if err != nil {
			t.Fatal(err)
		}
		run, err := stream.Replay(lsr, events)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", run)
	}
	if a, b := replay(), replay(); a != b {
		t.Errorf("two builds of the same spec diverged:\n%s\n%s", a, b)
	}
}

// TestBuildRejects covers the validation paths.
func TestBuildRejects(t *testing.T) {
	cases := map[string]OpenRequest{
		"unknown domain": {Domain: "warehouse", Types: validTypes()},
		"no types":       {Domain: DomainParking},
		"bad types":      {Domain: DomainParking, Types: []LeaseType{{Length: 4, Cost: 1}, {Length: 1, Cost: 1}}},
		"missing spec":   {Domain: DomainFacility, Types: validTypes()},
		"bad instance": {Domain: DomainSteiner, Types: validTypes(),
			Steiner: &SteinerSpec{Vertices: 1, Edges: []Edge{{U: 0, V: 5, W: 1}}}},
	}
	for name, req := range cases {
		if _, err := req.Build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEndpointsDeclared keeps the route table well-formed: unique
// name and method+path, known auth scopes, known error codes.
func TestEndpointsDeclared(t *testing.T) {
	names := map[string]bool{}
	routes := map[string]bool{}
	codes := map[string]bool{}
	for _, c := range []string{
		CodeBadRequest, CodeUnauthorized, CodeForbidden, CodeUnknownTenant,
		CodeDuplicateTenant, CodeTenantClosed, CodeBackpressure,
		CodeNotRecording, CodeSessionFailed, CodeStorageFailed,
		CodeShuttingDown, CodeNotClustered,
	} {
		codes[c] = true
	}
	for _, ep := range Endpoints() {
		if names[ep.Name] {
			t.Errorf("duplicate endpoint name %q", ep.Name)
		}
		names[ep.Name] = true
		route := ep.Method + " " + ep.Path
		if routes[route] {
			t.Errorf("duplicate route %q", route)
		}
		routes[route] = true
		if ep.Auth != AuthNone && ep.Auth != AuthTenant && ep.Auth != AuthAdmin {
			t.Errorf("%s: unknown auth scope %q", ep.Name, ep.Auth)
		}
		if ep.Response == nil {
			t.Errorf("%s: no response type", ep.Name)
		}
		for _, c := range ep.Errors {
			if !codes[c] {
				t.Errorf("%s: undeclared error code %q", ep.Name, c)
			}
		}
	}
}

// TestAPIMarkdown sanity-checks the generated reference: every
// endpoint, every error code with its status, and every wire type
// reachable from the declarations must appear.
func TestAPIMarkdown(t *testing.T) {
	doc := string(APIMarkdown())
	for _, ep := range Endpoints() {
		if !strings.Contains(doc, fmt.Sprintf("`%s %s`", ep.Method, ep.Path)) {
			t.Errorf("API doc missing endpoint %s %s", ep.Method, ep.Path)
		}
	}
	for _, want := range []string{
		"`" + CodeBackpressure + "` | 429",
		"`" + CodeUnknownTenant + "` | 404",
		"### `OpenRequest`",
		"### `Run`",
		"### `Error`",
		"application/x-lease-binary",
		"| `seed` |",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("API doc missing %q", want)
		}
	}
	if a, b := string(APIMarkdown()), doc; a != b {
		t.Error("APIMarkdown is not deterministic")
	}
}
