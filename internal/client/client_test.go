package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"leasing/internal/client"
	"leasing/internal/wire"
)

// fakeService is a scripted submit endpoint: each call pops the next
// behavior (accept all, or 429 after accepting k events).
type fakeService struct {
	mu       sync.Mutex
	script   []int // -1 = accept everything; k >= 0 = accept k then 429
	accepted []wire.Event
	tokens   []string
}

func (f *fakeService) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/events", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.tokens = append(f.tokens, r.Header.Get("Authorization"))
		var evs []wire.Event
		if err := json.NewDecoder(r.Body).Decode(&evs); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(&wire.Error{Code: wire.CodeBadRequest, Message: err.Error()})
			return
		}
		step := -1
		if len(f.script) > 0 {
			step, f.script = f.script[0], f.script[1:]
		}
		if step < 0 || step >= len(evs) {
			f.accepted = append(f.accepted, evs...)
			json.NewEncoder(w).Encode(wire.SubmitResponse{Accepted: len(evs)})
			return
		}
		f.accepted = append(f.accepted, evs[:step]...)
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(&wire.Error{
			Code: wire.CodeBackpressure, Message: "queue full", Accepted: step,
		})
	})
	return mux
}

func events(n int) []wire.Event {
	out := make([]wire.Event, n)
	for i := range out {
		out[i] = wire.Event{Time: int64(i), Kind: wire.KindDay}
	}
	return out
}

// TestSubmitResumesAfterBackpressure: partial 429s are retried from the
// reported offset, so every event arrives exactly once and in order.
func TestSubmitResumesAfterBackpressure(t *testing.T) {
	f := &fakeService{script: []int{3, 0, 2, -1, 1, -1}}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()
	cli := client.New(ts.URL, client.Options{Chunk: 10, RetryWait: time.Microsecond})

	evs := events(25)
	n, err := cli.Submit(context.Background(), "acme", evs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(evs) {
		t.Fatalf("submitted %d of %d", n, len(evs))
	}
	if len(f.accepted) != len(evs) {
		t.Fatalf("service saw %d events, want %d", len(f.accepted), len(evs))
	}
	for i, ev := range f.accepted {
		if ev.Time != int64(i) {
			t.Fatalf("event %d has time %d: stream reordered or duplicated", i, ev.Time)
		}
	}
}

// TestSubmitGivesUpWithoutProgress: endless zero-progress 429s exhaust
// the retry budget instead of spinning forever.
func TestSubmitGivesUpWithoutProgress(t *testing.T) {
	script := make([]int, 100)
	f := &fakeService{script: script} // every call: accept 0, then 429
	ts := httptest.NewServer(f.handler())
	defer ts.Close()
	cli := client.New(ts.URL, client.Options{Chunk: 10, RetryWait: time.Microsecond, MaxRetries: 3})

	n, err := cli.Submit(context.Background(), "acme", events(5))
	if err == nil {
		t.Fatal("no error after exhausted retries")
	}
	if !client.IsCode(err, wire.CodeBackpressure) {
		t.Fatalf("error %v does not carry backpressure code", err)
	}
	if n != 0 {
		t.Fatalf("reported %d accepted, want 0", n)
	}
}

// TestTokenHeader: the configured token rides every request.
func TestTokenHeader(t *testing.T) {
	f := &fakeService{}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()
	cli := client.New(ts.URL, client.Options{Token: "secret"})
	if _, err := cli.Submit(context.Background(), "acme", events(1)); err != nil {
		t.Fatal(err)
	}
	if len(f.tokens) != 1 || f.tokens[0] != "Bearer secret" {
		t.Fatalf("authorization headers %q, want one Bearer secret", f.tokens)
	}
}

// TestErrorDecoding: non-2xx responses surface as typed wire errors.
func TestErrorDecoding(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(&wire.Error{Code: wire.CodeUnknownTenant, Message: "nope"})
	}))
	defer ts.Close()
	cli := client.New(ts.URL, client.Options{})
	_, err := cli.Cost(context.Background(), "ghost")
	if !client.IsCode(err, wire.CodeUnknownTenant) {
		t.Fatalf("error %v, want unknown_tenant", err)
	}
}

// TestContextCancellation: a canceled context stops the backoff loop.
func TestContextCancellation(t *testing.T) {
	script := make([]int, 1000)
	f := &fakeService{script: script}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()
	cli := client.New(ts.URL, client.Options{RetryWait: 50 * time.Millisecond, MaxRetries: 1000})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cli.Submit(ctx, "acme", events(3)); err == nil {
		t.Fatal("no error from canceled context")
	}
}

// TestOpenSendsSpecWithoutStream: Open sends the spec's WithoutStream
// form, so its body is the same size for 10 and for 10,000 arrivals,
// and it leaves the caller's spec, stream included, as it was: a caller
// builds its Replay reference from the same value.
func TestOpenSendsSpecWithoutStream(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("read open body: %v", err)
		}
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(wire.OpenResponse{Tenant: "acme", Domain: wire.DomainSetCover})
	}))
	defer ts.Close()
	cli := client.New(ts.URL, client.Options{})

	spec := func(n int) wire.OpenRequest {
		arrivals := make([]wire.ElementArrival, n)
		for i := range arrivals {
			arrivals[i] = wire.ElementArrival{T: int64(i), Elem: i % 3, P: 1}
		}
		return wire.OpenRequest{
			Domain: wire.DomainSetCover, Types: []wire.LeaseType{{Length: 1, Cost: 1}, {Length: 4, Cost: 3}}, Seed: 9,
			SetCover: &wire.SetCoverSpec{Elements: 3, Sets: [][]int{{0, 1}, {1, 2}}, Costs: [][]float64{{1, 3}, {1, 3}}, Arrivals: arrivals},
		}
	}
	for _, n := range []int{10, 10_000} {
		req := spec(n)
		before, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Open(context.Background(), "acme", req); err != nil {
			t.Fatal(err)
		}
		after, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) || len(req.SetCover.Arrivals) != n {
			t.Errorf("Open changed the caller's %d-arrival spec", n)
		}
	}
	if len(bodies) != 2 {
		t.Fatalf("service saw %d opens, want 2", len(bodies))
	}
	if len(bodies[0]) != len(bodies[1]) {
		t.Errorf("open bodies of %d and %d bytes for 10 and 10,000 arrivals, want equal sizes", len(bodies[0]), len(bodies[1]))
	}
	var sent wire.OpenRequest
	if err := json.Unmarshal(bodies[1], &sent); err != nil {
		t.Fatal(err)
	}
	if want := spec(10_000).WithoutStream(); !reflect.DeepEqual(sent, want) {
		t.Errorf("open sent %+v, want the stream-less spec %+v", sent, want)
	}
}
