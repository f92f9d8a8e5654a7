package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"leasing"
	"leasing/internal/client"
	"leasing/internal/engine"
	"leasing/internal/server"
	"leasing/internal/wire"
)

func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := f()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestGenerateKinds(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want leasing.Payload
	}{
		{"days", []string{"-kind", "days", "-horizon", "60", "-p", "0.4", "-seed", "2"}, leasing.DayPayload{}},
		{"bursty days", []string{"-kind", "days", "-horizon", "60", "-bursty", "-seed", "2"}, leasing.DayPayload{}},
		{"deadline", []string{"-kind", "deadline", "-horizon", "60", "-p", "0.4", "-dmax", "5"}, leasing.WindowPayload{}},
		{"elements", []string{"-kind", "elements", "-horizon", "60", "-p", "0.5", "-n", "9", "-pmax", "2"}, leasing.ElementPayload{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := captureStdout(t, func() error { return run(tt.args) })
			if err != nil {
				t.Fatal(err)
			}
			evs, err := leasing.ReadEvents(strings.NewReader(out))
			if err != nil {
				t.Fatalf("generated trace does not parse: %v", err)
			}
			if len(evs) == 0 {
				t.Fatal("generated trace is empty")
			}
			for i, ev := range evs {
				if fmt.Sprintf("%T", ev.Payload) != fmt.Sprintf("%T", tt.want) {
					t.Fatalf("event %d has payload %T, want %T", i, ev.Payload, tt.want)
				}
			}
		})
	}
}

// TestTraceIsSubmitBody: leasegen's output is the submit endpoint's
// default body. Posted unchanged, every event is accepted, and after a
// flush the tenant's cost and snapshot equal a local Replay of the same
// bytes read with ReadEvents.
func TestTraceIsSubmitBody(t *testing.T) {
	types := []wire.LeaseType{{Length: 1, Cost: 1}, {Length: 4, Cost: 3}, {Length: 16, Cost: 8}}
	tests := []struct {
		name string
		args []string
		open func(evs []leasing.Event) wire.OpenRequest
	}{
		{"days", []string{"-kind", "days", "-horizon", "120", "-seed", "3"},
			func([]leasing.Event) wire.OpenRequest {
				return wire.OpenRequest{Domain: wire.DomainParking, Types: types}
			}},
		{"deadline", []string{"-kind", "deadline", "-horizon", "120", "-dmax", "5", "-seed", "3"},
			func([]leasing.Event) wire.OpenRequest {
				return wire.OpenRequest{Domain: wire.DomainDeadline, Types: types}
			}},
		{"elements", []string{"-kind", "elements", "-horizon", "120", "-p", "0.5", "-n", "6", "-pmax", "2", "-seed", "3"},
			func(evs []leasing.Event) wire.OpenRequest {
				// A set cover session declares its arrivals up front.
				spec := &wire.SetCoverSpec{
					Elements: 6,
					Sets:     [][]int{{0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}, {0, 2, 4}},
					Costs:    [][]float64{{1, 3, 8}, {1.2, 3.5, 9}, {0.8, 2.5, 7}},
				}
				for _, ev := range evs {
					e := ev.Payload.(leasing.ElementPayload)
					spec.Arrivals = append(spec.Arrivals, wire.ElementArrival{T: ev.Time, Elem: e.Elem, P: e.P})
				}
				return wire.OpenRequest{Domain: wire.DomainSetCover, Types: types, Seed: 5, SetCover: spec}
			}},
	}
	eng := engine.New(engine.Config{Shards: 2})
	defer eng.Close()
	ts := httptest.NewServer(server.New(eng, server.Config{}))
	defer ts.Close()
	cli := client.New(ts.URL, client.Options{})
	ctx := context.Background()

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := captureStdout(t, func() error { return run(tt.args) })
			if err != nil {
				t.Fatal(err)
			}
			evs, err := leasing.ReadEvents(strings.NewReader(out))
			if err != nil {
				t.Fatal(err)
			}
			spec := tt.open(evs)
			if err := cli.Open(ctx, tt.name, spec); err != nil {
				t.Fatal(err)
			}

			resp, err := http.Post(ts.URL+"/v1/tenants/"+tt.name+"/events", "application/json", strings.NewReader(out))
			if err != nil {
				t.Fatal(err)
			}
			var sub wire.SubmitResponse
			err = json.NewDecoder(resp.Body).Decode(&sub)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || sub.Accepted != len(evs) {
				t.Fatalf("submit answered %d %+v (%v), want 200 with accepted %d", resp.StatusCode, sub, err, len(evs))
			}
			if err := cli.Flush(ctx, tt.name); err != nil {
				t.Fatal(err)
			}

			lsr, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := leasing.Replay(lsr, evs); err != nil {
				t.Fatal(err)
			}
			cost, err := cli.Cost(ctx, tt.name)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%#v", cost), fmt.Sprintf("%#v", wire.FromStreamCost(lsr.Cost())); got != want {
				t.Errorf("served cost %s, local Replay %s", got, want)
			}
			snap, err := cli.Snapshot(ctx, tt.name)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%#v", snap), fmt.Sprintf("%#v", wire.FromStreamSolution(lsr.Snapshot())); got != want {
				t.Errorf("served snapshot diverged from local Replay:\n got %s\nwant %s", got, want)
			}
		})
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := captureStdout(t, func() error { return run([]string{"-kind", "bogus"}) }); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := captureStdout(t, func() error { return run([]string{"-kind", "elements", "-n", "0"}) }); err == nil {
		t.Error("n=0 accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}
