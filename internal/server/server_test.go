package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"leasing/internal/engine"
	"leasing/internal/server"
	"leasing/internal/stream"
	"leasing/internal/wire"
)

func newService(t *testing.T, ecfg engine.Config, scfg server.Config) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(ecfg)
	ts := httptest.NewServer(server.New(eng, scfg))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng
}

type call struct {
	method, path, contentType, token string
	body                             []byte
}

func do(t *testing.T, ts *httptest.Server, c call) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(c.body))
	if err != nil {
		t.Fatal(err)
	}
	if c.contentType != "" {
		req.Header.Set("Content-Type", c.contentType)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func parkingOpen() wire.OpenRequest {
	return wire.OpenRequest{
		Domain: wire.DomainParking,
		Types:  []wire.LeaseType{{Length: 1, Cost: 1}, {Length: 4, Cost: 2.5}, {Length: 16, Cost: 6}},
	}
}

func dayEvents(days ...int64) []wire.Event {
	out := make([]wire.Event, len(days))
	for i, d := range days {
		out[i] = wire.Event{Time: d, Kind: wire.KindDay}
	}
	return out
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e wire.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decode error body %q: %v", body, err)
	}
	return e.Code
}

// TestSessionLifecycle walks one tenant through open, submit (array
// form), flush, reads and close, checking bodies and status codes.
func TestSessionLifecycle(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 2, RecordRuns: true}, server.Config{})

	status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	if status != http.StatusCreated {
		t.Fatalf("open: status %d, body %s", status, body)
	}

	// A just-opened tenant serves its leaser's own empty snapshot.
	status, body = do(t, ts, call{method: "GET", path: "/v1/tenants/acme/snapshot"})
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"leases":[]`)) {
		t.Fatalf("snapshot after open: status %d body %s, want \"leases\":[]", status, body)
	}

	status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: mustJSON(t, dayEvents(0, 1, 2, 3))})
	if status != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", status, body)
	}
	var sub wire.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil || sub.Accepted != 4 {
		t.Fatalf("submit response %s (err %v), want accepted 4", body, err)
	}

	if status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme/flush"}); status != http.StatusOK {
		t.Fatalf("flush: status %d, body %s", status, body)
	}

	status, body = do(t, ts, call{method: "GET", path: "/v1/tenants/acme/cost"})
	if status != http.StatusOK {
		t.Fatalf("cost: status %d", status)
	}
	var cost wire.CostBreakdown
	if err := json.Unmarshal(body, &cost); err != nil || cost.Total != 4.5 {
		t.Fatalf("cost %s (err %v), want total 4.5", body, err)
	}

	status, body = do(t, ts, call{method: "GET", path: "/v1/tenants/acme/events"})
	var evs wire.EventsResponse
	if status != http.StatusOK || json.Unmarshal(body, &evs) != nil || evs.Processed != 4 {
		t.Fatalf("events: status %d body %s, want 4 processed", status, body)
	}

	status, body = do(t, ts, call{method: "GET", path: "/v1/tenants/acme/result"})
	var run wire.Run
	if status != http.StatusOK || json.Unmarshal(body, &run) != nil || len(run.Decisions) != 4 {
		t.Fatalf("result: status %d body %s, want 4 decisions", status, body)
	}

	status, body = do(t, ts, call{method: "GET", path: "/v1/tenants/acme/snapshot"})
	var sol wire.Solution
	if status != http.StatusOK || json.Unmarshal(body, &sol) != nil || len(sol.Leases) == 0 {
		t.Fatalf("snapshot: status %d body %s, want leases", status, body)
	}

	status, body = do(t, ts, call{method: "DELETE", path: "/v1/tenants/acme"})
	var closed wire.CloseResponse
	if status != http.StatusOK || json.Unmarshal(body, &closed) != nil {
		t.Fatalf("close: status %d body %s", status, body)
	}
	if closed.Events != 4 || closed.Cost.Total != 4.5 {
		t.Errorf("close reports %+v, want 4 events / total 4.5", closed)
	}

	// Closing again conflicts; reads still serve the final state.
	status, body = do(t, ts, call{method: "DELETE", path: "/v1/tenants/acme"})
	if status != http.StatusConflict || errCode(t, body) != wire.CodeTenantClosed {
		t.Errorf("double close: status %d body %s", status, body)
	}
	if status, _ = do(t, ts, call{method: "GET", path: "/v1/tenants/acme/cost"}); status != http.StatusOK {
		t.Errorf("post-close cost read: status %d", status)
	}
}

// TestSubmitErrors covers the 400 paths.
func TestSubmitErrors(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1}, server.Config{})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})

	status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: []byte(`{"not":"an array"}`)})
	if status != http.StatusBadRequest || errCode(t, body) != wire.CodeBadRequest {
		t.Errorf("bad array: status %d body %s", status, body)
	}

	status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: []byte(`[{"time":0,"kind":"teleport"}]`)})
	if status != http.StatusBadRequest || errCode(t, body) != wire.CodeBadRequest {
		t.Errorf("bad kind: status %d body %s", status, body)
	}

	// A submit body is a JSON array or binary frames. NDJSON, even of
	// valid events, falls to the array decoder and is refused whole.
	ndjson := `{"time":0,"kind":"day"}
{"time":1,"kind":"day"}
`
	status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/x-ndjson", body: []byte(ndjson)})
	var apiErr wire.Error
	if status != http.StatusBadRequest || json.Unmarshal(body, &apiErr) != nil ||
		apiErr.Code != wire.CodeBadRequest || apiErr.Accepted != 0 {
		t.Errorf("ndjson body: status %d body %s, want 400 bad_request with accepted 0", status, body)
	}
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme/flush"})
	status, body = do(t, ts, call{method: "GET", path: "/v1/tenants/acme/events"})
	var evs wire.EventsResponse
	if status != http.StatusOK || json.Unmarshal(body, &evs) != nil || evs.Processed != 0 {
		t.Errorf("processed %s after the refused bodies, want 0", body)
	}
}

// TestOpenErrors covers bad specs and duplicate tenants.
func TestOpenErrors(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1}, server.Config{})

	status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: []byte(`{"domain":"warehouse"}`)})
	if status != http.StatusBadRequest || errCode(t, body) != wire.CodeBadRequest {
		t.Errorf("bad domain: status %d body %s", status, body)
	}

	open := mustJSON(t, parkingOpen())
	if status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: open}); status != http.StatusCreated {
		t.Fatalf("open: status %d body %s", status, body)
	}
	status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: open})
	if status != http.StatusConflict || errCode(t, body) != wire.CodeDuplicateTenant {
		t.Errorf("duplicate open: status %d body %s", status, body)
	}
}

// TestUnknownTenantReads map to 404. (The engine reports a disabled
// recorder before looking tenants up, so the service runs with
// recording here to probe the unknown-tenant path of every read.)
func TestUnknownTenantReads(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1, RecordRuns: true}, server.Config{})
	for _, path := range []string{
		"/v1/tenants/ghost/cost", "/v1/tenants/ghost/events",
		"/v1/tenants/ghost/snapshot", "/v1/tenants/ghost/result",
	} {
		status, body := do(t, ts, call{method: "GET", path: path})
		if status != http.StatusNotFound || errCode(t, body) != wire.CodeUnknownTenant {
			t.Errorf("%s: status %d body %s", path, status, body)
		}
	}
	status, body := do(t, ts, call{method: "DELETE", path: "/v1/tenants/ghost"})
	if status != http.StatusNotFound || errCode(t, body) != wire.CodeUnknownTenant {
		t.Errorf("close ghost: status %d body %s", status, body)
	}
}

// TestResultWithoutRecording maps to 409 not_recording.
func TestResultWithoutRecording(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1}, server.Config{})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	status, body := do(t, ts, call{method: "GET", path: "/v1/tenants/acme/result"})
	if status != http.StatusConflict || errCode(t, body) != wire.CodeNotRecording {
		t.Errorf("result without -record: status %d body %s", status, body)
	}
}

// TestTimeRegressionWithinRequest is rejected synchronously with 400
// before anything is enqueued.
func TestTimeRegressionWithinRequest(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1}, server.Config{})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: mustJSON(t, dayEvents(9, 3))})
	if status != http.StatusBadRequest || errCode(t, body) != wire.CodeBadRequest {
		t.Errorf("in-request regression: status %d body %s", status, body)
	}
	// Nothing was enqueued, so the session is untouched.
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme/flush"})
	if status, _ := do(t, ts, call{method: "GET", path: "/v1/tenants/acme/cost"}); status != http.StatusOK {
		t.Errorf("session poisoned by rejected request: status %d", status)
	}
}

// TestSessionFailure: a time regression across separate requests is
// only seen asynchronously by the shard; it poisons the session and
// reads surface session_failed — but close still reports the finals.
func TestSessionFailure(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1}, server.Config{})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: mustJSON(t, dayEvents(9))})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: mustJSON(t, dayEvents(3))})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme/flush"})
	status, body := do(t, ts, call{method: "GET", path: "/v1/tenants/acme/cost"})
	if status != http.StatusInternalServerError || errCode(t, body) != wire.CodeSessionFailed {
		t.Errorf("failed session read: status %d body %s", status, body)
	}
	// Closing a failed session succeeds and reports the pre-failure
	// finals instead of eating the close.
	status, body = do(t, ts, call{method: "DELETE", path: "/v1/tenants/acme"})
	var closed wire.CloseResponse
	if status != http.StatusOK || json.Unmarshal(body, &closed) != nil {
		t.Fatalf("close of failed session: status %d body %s", status, body)
	}
	if closed.Events != 1 || closed.Cost.Total != 1 {
		t.Errorf("close reports %+v, want 1 event / total 1 (state at failure)", closed)
	}
}

// TestBackpressure: a tiny queue on an engine whose shard is wedged
// behind a slow open returns 429 with the accepted count.
func TestBackpressure(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1, QueueDepth: 1, BatchSize: 1}, server.Config{ChunkSize: 1})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})

	// Wedge the shard: a leaser that blocks until released.
	release := make(chan struct{})
	eng2 := engine.New(engine.Config{Shards: 1, QueueDepth: 1, BatchSize: 1})
	defer eng2.Close()
	srv2 := httptest.NewServer(server.New(eng2, server.Config{ChunkSize: 1, Builder: func(r *wire.OpenRequest) (stream.Leaser, error) {
		return &blockingLeaser{release: release}, nil
	}}))
	defer srv2.Close()
	do(t, srv2, call{method: "POST", path: "/v1/tenants/slow",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})

	// Fill: first event wedges the shard, next fills the queue, then
	// submits must 429. Accepted counts must be reported on the way.
	saw429 := false
	accepted := 0
	for i := 0; i < 20 && !saw429; i++ {
		status, body := do(t, srv2, call{method: "POST", path: "/v1/tenants/slow/events",
			contentType: "application/json", body: mustJSON(t, dayEvents(int64(i)))})
		switch status {
		case http.StatusOK:
			accepted++
		case http.StatusTooManyRequests:
			saw429 = true
			var e wire.Error
			if err := json.Unmarshal(body, &e); err != nil || e.Code != wire.CodeBackpressure {
				t.Fatalf("429 body %s (err %v)", body, err)
			}
		default:
			t.Fatalf("unexpected status %d body %s", status, body)
		}
	}
	if !saw429 {
		t.Fatal("queue never backpressured")
	}
	if accepted == 0 {
		t.Fatal("nothing accepted before backpressure")
	}
	close(release) // unwedge so Cleanup's eng2.Close drains
}

type blockingLeaser struct {
	release <-chan struct{}
	once    bool
}

func (b *blockingLeaser) Observe(stream.Event) (stream.Decision, error) {
	if !b.once {
		b.once = true
		<-b.release
	}
	return stream.Decision{}, nil
}
func (b *blockingLeaser) Cost() stream.CostBreakdown { return stream.CostBreakdown{} }
func (b *blockingLeaser) Snapshot() stream.Solution  { return stream.Solution{} }

// TestAuth exercises token scoping: missing, unknown, wrong-tenant,
// tenant-scoped, and admin tokens.
func TestAuth(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1}, server.Config{
		Tokens: map[string]string{"acme-token": "acme", "root-token": server.AdminScope},
	})

	status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	if status != http.StatusUnauthorized || errCode(t, body) != wire.CodeUnauthorized {
		t.Errorf("no token: status %d body %s", status, body)
	}

	status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme", token: "wrong",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	if status != http.StatusUnauthorized || errCode(t, body) != wire.CodeUnauthorized {
		t.Errorf("unknown token: status %d body %s", status, body)
	}

	status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/globex", token: "acme-token",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	if status != http.StatusForbidden || errCode(t, body) != wire.CodeForbidden {
		t.Errorf("cross-tenant token: status %d body %s", status, body)
	}

	if status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme", token: "acme-token",
		contentType: "application/json", body: mustJSON(t, parkingOpen())}); status != http.StatusCreated {
		t.Errorf("tenant token open: status %d body %s", status, body)
	}

	status, body = do(t, ts, call{method: "GET", path: "/v1/metrics", token: "acme-token"})
	if status != http.StatusForbidden || errCode(t, body) != wire.CodeForbidden {
		t.Errorf("metrics with tenant token: status %d body %s", status, body)
	}
	if status, _ = do(t, ts, call{method: "GET", path: "/v1/metrics", token: "root-token"}); status != http.StatusOK {
		t.Errorf("metrics with admin token: status %d", status)
	}
	if status, _ = do(t, ts, call{method: "POST", path: "/v1/tenants/globex", token: "root-token",
		contentType: "application/json", body: mustJSON(t, parkingOpen())}); status != http.StatusCreated {
		t.Errorf("admin token open: status %d", status)
	}
	// Health stays open.
	if status, _ = do(t, ts, call{method: "GET", path: "/v1/healthz"}); status != http.StatusOK {
		t.Errorf("healthz with auth enabled: status %d", status)
	}
}

// TestMetrics aggregates shard counters over HTTP.
func TestMetrics(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 3}, server.Config{})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: mustJSON(t, dayEvents(0, 1, 2))})
	do(t, ts, call{method: "POST", path: "/v1/tenants/acme/flush"})

	status, body := do(t, ts, call{method: "GET", path: "/v1/metrics"})
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var m wire.Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Sessions != 1 || m.Events != 3 || len(m.Shards) != 3 {
		t.Errorf("metrics %+v, want 1 session / 3 events / 3 shards", m)
	}
}

// TestShutdownMapsToServiceUnavailable: operations on a closed engine
// return 503 shutting_down (the drain window behavior).
func TestShutdownMapsToServiceUnavailable(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 1})
	ts := httptest.NewServer(server.New(eng, server.Config{}))
	defer ts.Close()
	eng.Close()
	status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	if status != http.StatusServiceUnavailable || errCode(t, body) != wire.CodeShuttingDown {
		t.Errorf("open after close: status %d body %s", status, body)
	}
	status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: mustJSON(t, dayEvents(0))})
	if status != http.StatusServiceUnavailable || errCode(t, body) != wire.CodeShuttingDown {
		t.Errorf("submit after close: status %d body %s", status, body)
	}
}

// TestRoutesMatchDeclarations drives one request per declared endpoint
// and asserts none of them 404s at the mux level — the route table
// really is wire.Endpoints.
func TestRoutesMatchDeclarations(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1}, server.Config{})
	for _, ep := range wire.Endpoints() {
		path := strings.ReplaceAll(ep.Path, "{tenant}", "probe")
		status, body := do(t, ts, call{method: ep.Method, path: path,
			contentType: "application/json", body: []byte("[]")})
		if status == http.StatusNotFound && errCode(t, body) != wire.CodeUnknownTenant {
			t.Errorf("%s %s: unrouted (404 without unknown_tenant body: %s)", ep.Method, ep.Path, body)
		}
		if status == http.StatusMethodNotAllowed {
			t.Errorf("%s %s: method not allowed", ep.Method, ep.Path)
		}
	}
}
