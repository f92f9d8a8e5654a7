package server_test

// Binary-path twin of the remote parity anchor: the same eight domain
// sessions, driven over the negotiated binary framing
// (wire.ContentTypeBinary), must land byte-identical to single-threaded
// Replay — and a session fed through a mix of JSON and binary requests
// (switching encodings across reconnects) must be indistinguishable
// from one fed through either alone, because both encodings decode to
// exactly the same stream.Event values.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"leasing/internal/client"
	"leasing/internal/engine"
	"leasing/internal/server"
	"leasing/internal/stream"
	"leasing/internal/wire"
)

func binaryParityServer(t *testing.T) (*httptest.Server, func()) {
	t.Helper()
	eng := engine.New(engine.Config{Shards: 4, BatchSize: 8, QueueDepth: 16, RecordRuns: true})
	ts := httptest.NewServer(server.New(eng, server.Config{ChunkSize: 16}))
	return ts, func() {
		ts.Close()
		eng.Close()
	}
}

// replayWant computes the two reference runs (spec-built and
// facade-built) and fails the test if they cannot be produced.
func replayWant(t *testing.T, tc remoteCase) (spec, facade string) {
	t.Helper()
	specRef, err := tc.spec.Build()
	if err != nil {
		t.Fatalf("%s: spec build: %v", tc.name, err)
	}
	specWant, err := stream.Replay(specRef, tc.events)
	if err != nil {
		t.Fatalf("%s: spec replay: %v", tc.name, err)
	}
	facadeRef, err := tc.fresh()
	if err != nil {
		t.Fatalf("%s: fresh: %v", tc.name, err)
	}
	facadeWant, err := stream.Replay(facadeRef, tc.events)
	if err != nil {
		t.Fatalf("%s: facade replay: %v", tc.name, err)
	}
	return fmt.Sprintf("%#v", specWant), fmt.Sprintf("%#v", facadeWant)
}

// TestRemoteParityBinary drives all eight domains through the binary
// submit framing — alternating the client's one-frame requests (Submit)
// and bodies of several frames (submitFrames) — and holds each
// binary-negotiated Result to byte-identity with Replay.
func TestRemoteParityBinary(t *testing.T) {
	cases := remoteCases(t)
	ts, shutdown := binaryParityServer(t)
	defer shutdown()
	const chunk = 5
	cli := client.New(ts.URL, client.Options{Chunk: chunk, Binary: true})
	ctx := context.Background()

	for _, tc := range cases {
		if err := cli.Open(ctx, tc.name, tc.spec); err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
	}
	for i, tc := range cases {
		wevs, err := wire.FromStreamEvents(tc.events)
		if err != nil {
			t.Fatalf("%s: wire events: %v", tc.name, err)
		}
		if i%2 == 0 {
			if _, err := cli.Submit(ctx, tc.name, wevs); err != nil {
				t.Fatalf("%s: binary submit: %v", tc.name, err)
			}
		} else {
			submitFrames(ctx, t, ts, cli, tc.name, wevs, chunk)
		}
	}
	if err := cli.Flush(ctx, cases[0].name); err != nil {
		t.Fatal(err)
	}

	for _, tc := range cases {
		wrun, err := cli.Result(ctx, tc.name)
		if err != nil {
			t.Fatalf("%s: binary result: %v", tc.name, err)
		}
		got := fmt.Sprintf("%#v", wrun.Stream())
		specWant, facadeWant := replayWant(t, tc)
		if got != specWant {
			t.Errorf("%s: binary-path run not byte-identical to spec-built Replay:\nremote %s\nreplay %s",
				tc.name, got, specWant)
		}
		if got != facadeWant {
			t.Errorf("%s: binary-path run not byte-identical to facade-built Replay:\nremote %s\nreplay %s",
				tc.name, got, facadeWant)
		}
		n, err := cli.Processed(ctx, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(tc.events)) {
			t.Errorf("%s: processed %d events over binary, want %d", tc.name, n, len(tc.events))
		}
	}
}

// submitFrames posts the events as one binary body of several frames,
// one per chunk events, which the server decodes and enqueues frame by
// frame. A single request does not retry, so on backpressure it
// flushes and reposts the events after the accepted count. Three
// attempts in a row that accept nothing fail at once, so a server stuck
// on backpressure cannot hang the test.
func submitFrames(ctx context.Context, t *testing.T, ts *httptest.Server, cli *client.Client, tenant string, wevs []wire.Event, chunk int) {
	t.Helper()
	for stalls := 0; ; {
		body := []byte(wire.BinaryMagic)
		for lo := 0; lo < len(wevs); lo += chunk {
			payload, err := wire.AppendEventsBinaryWire(nil, wevs[lo:min(lo+chunk, len(wevs))])
			if err != nil {
				t.Fatalf("%s: encode frame: %v", tenant, err)
			}
			body = wire.AppendFrame(body, payload)
		}
		_, apiErr := postBinary(t, ts, tenant, body)
		if apiErr == nil {
			return
		}
		if apiErr.Code != wire.CodeBackpressure {
			t.Fatalf("%s: multi-frame submit: accepted %d of %d: %v", tenant, apiErr.Accepted, len(wevs), apiErr)
		}
		if apiErr.Accepted > 0 {
			stalls = 0
		} else if stalls++; stalls == 3 {
			t.Fatalf("%s: %d attempts in a row accepted 0 events: %v", tenant, stalls, apiErr)
		}
		wevs = wevs[apiErr.Accepted:]
		if err := cli.Flush(ctx, tenant); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteParityMixedEncodings interleaves JSON and binary submits
// within each session — two distinct clients, so the encodings also
// switch across connections — and checks the session cannot tell:
// the result (read through both negotiations) is byte-identical to
// Replay.
func TestRemoteParityMixedEncodings(t *testing.T) {
	cases := remoteCases(t)
	ts, shutdown := binaryParityServer(t)
	defer shutdown()
	jsonCli := client.New(ts.URL, client.Options{Chunk: 7})
	binCli := client.New(ts.URL, client.Options{Chunk: 5, Binary: true})
	ctx := context.Background()

	for _, tc := range cases {
		if err := jsonCli.Open(ctx, tc.name, tc.spec); err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
	}
	for i, tc := range cases {
		wevs, err := wire.FromStreamEvents(tc.events)
		if err != nil {
			t.Fatalf("%s: wire events: %v", tc.name, err)
		}
		// Four segments, alternating encodings; stagger which encoding
		// leads per case so every switch order is exercised.
		seg := (len(wevs) + 3) / 4
		for j := 0; len(wevs) > 0; j++ {
			n := min(seg, len(wevs))
			cli := jsonCli
			if (i+j)%2 == 0 {
				cli = binCli
			}
			if _, err := cli.Submit(ctx, tc.name, wevs[:n]); err != nil {
				t.Fatalf("%s: segment %d: %v", tc.name, j, err)
			}
			wevs = wevs[n:]
		}
	}
	if err := jsonCli.Flush(ctx, cases[0].name); err != nil {
		t.Fatal(err)
	}

	for _, tc := range cases {
		specWant, _ := replayWant(t, tc)
		for name, cli := range map[string]*client.Client{"json": jsonCli, "binary": binCli} {
			wrun, err := cli.Result(ctx, tc.name)
			if err != nil {
				t.Fatalf("%s: %s result: %v", tc.name, name, err)
			}
			if got := fmt.Sprintf("%#v", wrun.Stream()); got != specWant {
				t.Errorf("%s: mixed-encoding run (read via %s) not byte-identical to Replay:\nremote %s\nreplay %s",
					tc.name, name, got, specWant)
			}
		}
	}
}

// postBinary posts raw bytes as a binary submit body and decodes the
// wire error (nil for 2xx).
func postBinary(t *testing.T, ts *httptest.Server, tenant string, body []byte) (int, *wire.Error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/tenants/"+tenant+"/events", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		return resp.StatusCode, nil
	}
	apiErr := &wire.Error{}
	if err := json.NewDecoder(resp.Body).Decode(apiErr); err != nil || apiErr.Code == "" {
		t.Fatalf("status %d with undecodable error body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, apiErr
}

// TestSubmitBinaryBadRequests: malformed binary bodies map to 400
// bad_request with the accepted count of whatever preceded the damage.
func TestSubmitBinaryBadRequests(t *testing.T) {
	ts, shutdown := binaryParityServer(t)
	defer shutdown()

	frame := func(evs ...wire.Event) []byte {
		payload, err := wire.AppendEventsBinaryWire(nil, evs)
		if err != nil {
			t.Fatal(err)
		}
		return wire.AppendFrame(nil, payload)
	}
	okFrame := frame(wire.Event{Time: 1, Kind: wire.KindDay})

	cases := map[string]struct {
		body     []byte
		accepted int
	}{
		"empty body":    {body: nil},
		"bad magic":     {body: []byte("JSON[...]")},
		"short magic":   {body: []byte("LE")},
		"garbage frame": {body: append([]byte(wire.BinaryMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
		"zero frame":    {body: append([]byte(wire.BinaryMagic), 0)},
		// The valid first frame is enqueued before the damage is seen, so
		// the error reports accepted=1 — the precise resume point.
		"truncated body": {body: append(append([]byte(wire.BinaryMagic), okFrame...), 200, 1), accepted: 1},
		"corrupt events": {body: append([]byte(wire.BinaryMagic), wire.AppendFrame(nil, []byte{1, 99, 0})...)},
		"time regression": {
			body: append([]byte(wire.BinaryMagic),
				frame(wire.Event{Time: 5, Kind: wire.KindDay}, wire.Event{Time: 3, Kind: wire.KindDay})...),
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			status, apiErr := postBinary(t, ts, "no-such-tenant", tc.body)
			if apiErr == nil {
				t.Fatalf("accepted with status %d", status)
			}
			if apiErr.Code != wire.CodeBadRequest {
				t.Errorf("code = %q, want %q (%s)", apiErr.Code, wire.CodeBadRequest, apiErr.Message)
			}
			if apiErr.Accepted != tc.accepted {
				t.Errorf("accepted = %d, want %d", apiErr.Accepted, tc.accepted)
			}
		})
	}

	// A structurally valid body for an unknown tenant is not a bad
	// request: the engine accepts and drops it, exactly like JSON.
	if status, apiErr := postBinary(t, ts, "no-such-tenant", append([]byte(wire.BinaryMagic), okFrame...)); apiErr != nil {
		t.Errorf("well-formed body rejected: %d %v", status, apiErr)
	}
}

// TestResultBinaryNegotiation: the result endpoint answers JSON whether
// or not Accept asks for the binary media type, and both answers decode
// to the run the client reads.
func TestResultBinaryNegotiation(t *testing.T) {
	cases := remoteCases(t)
	tc := cases[0]
	ts, shutdown := binaryParityServer(t)
	defer shutdown()
	cli := client.New(ts.URL, client.Options{Chunk: 16})
	ctx := context.Background()
	if err := cli.Open(ctx, tc.name, tc.spec); err != nil {
		t.Fatal(err)
	}
	wevs, err := wire.FromStreamEvents(tc.events)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Submit(ctx, tc.name, wevs); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(ctx, tc.name); err != nil {
		t.Fatal(err)
	}
	want, err := cli.Result(ctx, tc.name)
	if err != nil {
		t.Fatal(err)
	}

	for _, accept := range []string{"", wire.ContentTypeBinary} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/tenants/"+tc.name+"/result", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var got wire.Run
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("Accept %q: result Content-Type = %q, want JSON", accept, ct)
		}
		if err != nil {
			t.Fatalf("Accept %q: decode result as JSON: %v", accept, err)
		}
		if g, w := fmt.Sprintf("%#v", got.Stream()), fmt.Sprintf("%#v", want.Stream()); g != w {
			t.Errorf("Accept %q: result diverged:\n got %s\nwant %s", accept, g, w)
		}
	}
}
