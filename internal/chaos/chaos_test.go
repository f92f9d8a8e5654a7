package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// payload is the body every handler call answers with.
var payload = strings.Repeat("lease", 20)

// newServer counts the requests that reach its handler.
func newServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, payload)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// outcome is what one request through a chaos transport looked like
// from the client: the status (0 on a transport error), the body read,
// and whether the error seen came from the transport.
type outcome struct {
	status   int
	body     string
	injected bool
}

func send(t *testing.T, cli *http.Client, url string) outcome {
	t.Helper()
	resp, err := cli.Post(url, "text/plain", strings.NewReader("submit"))
	if err != nil {
		if !IsInjected(err) {
			t.Fatalf("transport error not recognized as injected: %v", err)
		}
		return outcome{injected: true}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil && !IsInjected(err) {
		t.Fatalf("body read error not recognized as injected: %v", err)
	}
	return outcome{status: resp.StatusCode, body: string(body), injected: err != nil}
}

// TestFaultClasses injects each class with certainty and checks what
// reached the handler, what the client saw, and what Stats counted.
func TestFaultClasses(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    Options
		reached bool
		want    outcome
		stats   Stats
	}{
		{"none", Options{}, true, outcome{status: http.StatusOK, body: payload}, Stats{Requests: 1}},
		{"refuse", Options{Refuse: 1}, false, outcome{injected: true}, Stats{Requests: 1, Refused: 1}},
		{"status503", Options{Status503: 1}, false, outcome{status: http.StatusServiceUnavailable, body: "injected outage\n"}, Stats{Requests: 1, Status503: 1}},
		{"drop-response", Options{DropResponse: 1}, true, outcome{injected: true}, Stats{Requests: 1, Dropped: 1}},
		{"truncate", Options{Truncate: 1}, true, outcome{status: http.StatusOK, body: payload[:len(payload)/2], injected: true}, Stats{Requests: 1, Truncated: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, hits := newServer(t)
			tr := New(nil, tc.opts)
			got := send(t, &http.Client{Transport: tr}, ts.URL)
			if got != tc.want {
				t.Errorf("client saw %+v, want %+v", got, tc.want)
			}
			if reached := hits.Load() == 1; reached != tc.reached {
				t.Errorf("handler reached %v (%d hits), want %v", reached, hits.Load(), tc.reached)
			}
			if st := tr.Stats(); st != tc.stats {
				t.Errorf("stats %+v, want %+v", st, tc.stats)
			}
		})
	}
}

// TestSeededSchedule: two transports with the same seed inject the same
// fault sequence, and Stats accounts for every class of it.
func TestSeededSchedule(t *testing.T) {
	const requests = 200
	opts := Options{Seed: 7, Refuse: 0.1, Status503: 0.1, DropResponse: 0.1, Truncate: 0.1}
	run := func() ([]outcome, Stats, int64) {
		ts, hits := newServer(t)
		tr := New(nil, opts)
		cli := &http.Client{Transport: tr}
		seq := make([]outcome, requests)
		for i := range seq {
			seq[i] = send(t, cli, ts.URL)
		}
		return seq, tr.Stats(), hits.Load()
	}
	seqA, statsA, hitsA := run()
	seqB, statsB, _ := run()
	if !reflect.DeepEqual(seqA, seqB) {
		t.Error("the same seed injected different fault sequences")
	}
	if statsA != statsB {
		t.Errorf("stats differ under one seed: %+v vs %+v", statsA, statsB)
	}
	if statsA.Requests != requests || statsA.Refused == 0 || statsA.Status503 == 0 || statsA.Dropped == 0 || statsA.Truncated == 0 {
		t.Errorf("stats %+v: want %d requests and every class injected", statsA, requests)
	}
	if want := statsA.Requests - statsA.Refused - statsA.Status503; hitsA != want {
		t.Errorf("handler reached %d times, want %d (requests less refused and 503s)", hitsA, want)
	}
	injected := 0
	for _, o := range seqA {
		if o.injected || o.status == http.StatusServiceUnavailable {
			injected++
		}
	}
	if faults := statsA.Refused + statsA.Status503 + statsA.Dropped + statsA.Truncated; int64(injected) != faults {
		t.Errorf("client saw %d faults, stats count %d", injected, faults)
	}
}
