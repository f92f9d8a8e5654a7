package server_test

// Cluster-mode server behavior: placement redirects, the replicate
// ingest endpoint, failover activation, and the not_clustered guard on
// single-node daemons.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"leasing/internal/engine"
	"leasing/internal/server"
	"leasing/internal/stream"
	"leasing/internal/wal"
	"leasing/internal/wire"
)

// clusterPeers is a fixed three-member ring for the redirect tests; the
// server under test claims the first slot.
var clusterPeers = []string{
	"http://node-a.invalid:8080",
	"http://node-b.invalid:8080",
	"http://node-c.invalid:8080",
}

// newHTTP serves an already-built server (the cluster tests need the
// *server.Server itself for OwnerURL).
func newHTTP(t *testing.T, srv *server.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// mustFollower opens a follower log in a test tempdir.
func mustFollower(t *testing.T) *wal.Log {
	t.Helper()
	l, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// tenantOwnedBy scans generated names for one the ring places on want.
func tenantOwnedBy(t *testing.T, s *server.Server, want string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		tn := fmt.Sprintf("tenant-%04d", i)
		if s.OwnerURL(tn) == want {
			return tn
		}
	}
	t.Fatalf("no generated tenant landed on %s", want)
	return ""
}

// noFollow performs a request without following redirects.
func noFollow(t *testing.T, c call, base string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(c.method, base+c.path, bytes.NewReader(c.body))
	if err != nil {
		t.Fatal(err)
	}
	if c.contentType != "" {
		req.Header.Set("Content-Type", c.contentType)
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestClusterRedirectsForeignTenants: a tenant the ring places on a
// peer is answered with a 307 to the same path and query on that peer;
// a tenant placed here is served locally.
func TestClusterRedirectsForeignTenants(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	t.Cleanup(func() { eng.Close() })
	srv := server.New(eng, server.Config{Cluster: &server.ClusterConfig{
		Self: clusterPeers[0], Peers: clusterPeers, Follower: mustFollower(t),
	}})
	ts := newHTTP(t, srv)

	foreign := tenantOwnedBy(t, srv, clusterPeers[1])
	resp := noFollow(t, call{method: "POST", path: "/v1/tenants/" + foreign,
		contentType: "application/json", body: mustJSON(t, parkingOpen())}, ts.URL)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("foreign open: status %d, want 307", resp.StatusCode)
	}
	want := clusterPeers[1] + "/v1/tenants/" + foreign
	if loc := resp.Header.Get("Location"); loc != want {
		t.Fatalf("Location = %q, want %q", loc, want)
	}

	// Query strings survive the redirect.
	resp = noFollow(t, call{method: "GET", path: "/v1/tenants/" + foreign + "/result?x=1"}, ts.URL)
	if loc := resp.Header.Get("Location"); loc != want+"/result?x=1" {
		t.Fatalf("redirect lost the query: %q", loc)
	}

	local := tenantOwnedBy(t, srv, clusterPeers[0])
	status, body := do(t, ts, call{method: "POST", path: "/v1/tenants/" + local,
		contentType: "application/json", body: mustJSON(t, parkingOpen())})
	if status != http.StatusCreated {
		t.Fatalf("local open: status %d, body %s", status, body)
	}

	// Non-tenant endpoints never redirect.
	if status, _ := do(t, ts, call{method: "GET", path: "/v1/healthz"}); status != http.StatusOK {
		t.Fatalf("health on a clustered node: status %d", status)
	}
}

// TestReplicationRequiresCluster: the replication endpoints on a
// single-node daemon answer not_clustered, mapped to 409.
func TestReplicationRequiresCluster(t *testing.T) {
	ts, _ := newService(t, engine.Config{Shards: 1}, server.Config{})
	for _, path := range []string{"/v1/replica/records", "/v1/replica/activate"} {
		status, body := do(t, ts, call{method: "POST", path: path})
		if status != http.StatusConflict || errCode(t, body) != wire.CodeNotClustered {
			t.Fatalf("%s: status %d, body %s, want 409 not_clustered", path, status, body)
		}
	}
}

// shipBody frames records the way the shipper does: binary magic, then
// one frame per record of kind byte plus payload.
func shipBody(t *testing.T, recs ...[]byte) []byte {
	t.Helper()
	body := []byte(wire.BinaryMagic)
	for _, rec := range recs {
		body = wire.AppendFrame(body, rec)
	}
	return body
}

// rec builds one shipped record: kind byte plus encoded payload.
func rec(t *testing.T, kind byte, payload []byte, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{kind}, payload...)
}

// streamDays converts day events to stream form for record encoding.
func streamDays(days ...int64) []stream.Event {
	out := make([]stream.Event, len(days))
	for i, d := range days {
		out[i] = stream.Event{Time: d, Payload: stream.Day{}}
	}
	return out
}

// TestReplicateThenActivateFailsOver is the in-process failover drill:
// a "primary's" records are shipped to this node's follower log, the
// activate endpoint adopts them, and the adopted session serves reads
// identical to a single-node server that ingested the same history —
// including a resumed submit after the recovered processed count.
func TestReplicateThenActivateFailsOver(t *testing.T) {
	ownWAL := mustFollower(t) // this node's own durable log
	eng := engine.New(engine.Config{Shards: 2, WAL: ownWAL})
	t.Cleanup(func() { eng.Close() })
	srv := server.New(eng, server.Config{Cluster: &server.ClusterConfig{
		Self: clusterPeers[0], Peers: clusterPeers,
		Follower: mustFollower(t), WAL: ownWAL,
	}})
	ts := newHTTP(t, srv)

	// The dead primary's history: an open and six days, shipped in two
	// batches.
	spec := mustJSON(t, parkingOpen())
	openPayload, err := wal.EncodeOpenRecord("acme", spec)
	openRec := rec(t, wal.KindOpen, openPayload, err)
	ev1, err := wal.AppendEventsRecord(nil, "acme", streamDays(0, 1, 2))
	evRec1 := rec(t, wal.KindEventsBinary, ev1, err)
	ev2, err := wal.AppendEventsRecord(nil, "acme", streamDays(3, 4, 5))
	evRec2 := rec(t, wal.KindEventsBinary, ev2, err)

	status, body := do(t, ts, call{method: "POST", path: "/v1/replica/records",
		contentType: wire.ContentTypeBinary, body: shipBody(t, openRec, evRec1)})
	if status != http.StatusOK {
		t.Fatalf("replicate: status %d, body %s", status, body)
	}
	var rr wire.ReplicateResponse
	if err := json.Unmarshal(body, &rr); err != nil || rr.Applied != 2 {
		t.Fatalf("replicate response %s, want applied 2", body)
	}
	status, body = do(t, ts, call{method: "POST", path: "/v1/replica/records",
		contentType: wire.ContentTypeBinary, body: shipBody(t, evRec2)})
	if status != http.StatusOK {
		t.Fatalf("replicate batch 2: status %d, body %s", status, body)
	}

	// Before activation the tenant is foreign here: reads redirect.
	if srv.OwnerURL("acme") != clusterPeers[0] {
		resp := noFollow(t, call{method: "GET", path: "/v1/tenants/acme/events"}, ts.URL)
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("pre-activation read: status %d, want 307", resp.StatusCode)
		}
	}

	status, body = do(t, ts, call{method: "POST", path: "/v1/replica/activate"})
	if status != http.StatusOK {
		t.Fatalf("activate: status %d, body %s", status, body)
	}
	var ar wire.ActivateResponse
	if err := json.Unmarshal(body, &ar); err != nil || ar.Activated != 1 {
		t.Fatalf("activate response %s, want activated 1", body)
	}

	// Idempotent: a second activation adopts nothing.
	status, body = do(t, ts, call{method: "POST", path: "/v1/replica/activate"})
	if status != http.StatusOK {
		t.Fatalf("re-activate: status %d, body %s", status, body)
	}
	if err := json.Unmarshal(body, &ar); err != nil || ar.Activated != 0 {
		t.Fatalf("re-activate response %s, want activated 0", body)
	}

	// The adopted tenant now serves locally — no redirect — and resumes:
	// processed reflects the shipped history, and further submits land.
	status, body = do(t, ts, call{method: "GET", path: "/v1/tenants/acme/events"})
	if status != http.StatusOK {
		t.Fatalf("processed: status %d, body %s", status, body)
	}
	var pr wire.EventsResponse
	if err := json.Unmarshal(body, &pr); err != nil || pr.Processed != 6 {
		t.Fatalf("processed after failover = %s, want 6", body)
	}
	status, body = do(t, ts, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: mustJSON(t, dayEvents(6, 7))})
	if status != http.StatusOK {
		t.Fatalf("post-failover submit: status %d, body %s", status, body)
	}
	if status, _ := do(t, ts, call{method: "POST", path: "/v1/tenants/acme/flush"}); status != http.StatusOK {
		t.Fatalf("flush: status %d", status)
	}
	_, failoverCost := do(t, ts, call{method: "GET", path: "/v1/tenants/acme/cost"})

	// Reference: one single-node server ingests the identical history.
	ref, _ := newService(t, engine.Config{Shards: 2}, server.Config{})
	if status, body := do(t, ref, call{method: "POST", path: "/v1/tenants/acme",
		contentType: "application/json", body: spec}); status != http.StatusCreated {
		t.Fatalf("reference open: status %d, body %s", status, body)
	}
	if status, body := do(t, ref, call{method: "POST", path: "/v1/tenants/acme/events",
		contentType: "application/json", body: mustJSON(t, dayEvents(0, 1, 2, 3, 4, 5, 6, 7))}); status != http.StatusOK {
		t.Fatalf("reference submit: status %d, body %s", status, body)
	}
	if status, _ := do(t, ref, call{method: "POST", path: "/v1/tenants/acme/flush"}); status != http.StatusOK {
		t.Fatal("reference flush failed")
	}
	_, refCost := do(t, ref, call{method: "GET", path: "/v1/tenants/acme/cost"})
	if !bytes.Equal(failoverCost, refCost) {
		t.Fatalf("failover state diverged:\nfailover %s\nreference %s", failoverCost, refCost)
	}

	// Adoption pre-logged the shipped history into this node's own WAL,
	// so the tenant also survives a crash of the adopting node.
	adopted, err := ownWAL.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sess := range adopted {
		if sess.Tenant == "acme" && len(sess.Events) >= 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("adopted history missing from the node's own WAL: %+v", adopted)
	}
}

// TestReplicateRejectsGarbage: the replicate endpoint refuses the same
// framing faults as the binary submit path (they share one frame
// reader) plus records the follower log rejects, each with bad_request
// and the exact applied count, and the follower log holds only the
// records applied before the fault.
func TestReplicateRejectsGarbage(t *testing.T) {
	openPayload, err := wal.EncodeOpenRecord("acme", []byte(`{}`))
	good := rec(t, wal.KindOpen, openPayload, err)
	framed := func(b ...byte) []byte { return append([]byte(wire.BinaryMagic), b...) }

	cases := []struct {
		name    string
		body    []byte
		applied int
	}{
		{"empty body", nil, 0},
		{"bad magic", []byte("XXXX"), 0},
		{"short magic", []byte("LE"), 0},
		{"zero-length frame", framed(0), 0},
		{"oversized length", binary.AppendUvarint(framed(), wire.MaxFrameBytes+1), 0},
		{"truncated frame after a good record", append(shipBody(t, good), 200, 1), 1},
		{"record too short after a good record", shipBody(t, good, []byte{wal.KindOpen}), 1},
		{"corrupt record after a good record", shipBody(t, good, []byte{99, 'x'}), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl := mustFollower(t)
			eng := engine.New(engine.Config{Shards: 1})
			t.Cleanup(func() { eng.Close() })
			ts := newHTTP(t, server.New(eng, server.Config{Cluster: &server.ClusterConfig{
				Self: clusterPeers[0], Peers: clusterPeers, Follower: fl,
			}}))

			status, body := do(t, ts, call{method: "POST", path: "/v1/replica/records",
				contentType: wire.ContentTypeBinary, body: tc.body})
			var we wire.Error
			if err := json.Unmarshal(body, &we); err != nil || status != http.StatusBadRequest ||
				we.Code != wire.CodeBadRequest || we.Accepted != tc.applied {
				t.Fatalf("status %d, body %s; want 400 bad_request with applied %d", status, body, tc.applied)
			}

			got, err := fl.Rescan()
			if err != nil {
				t.Fatal(err)
			}
			if tc.applied == 0 && len(got) != 0 {
				t.Fatalf("follower log after a rejected body: %+v", got)
			}
			if tc.applied == 1 && (len(got) != 1 || got[0].Tenant != "acme" || len(got[0].Events) != 0) {
				t.Fatalf("follower log after the good record: %+v", got)
			}
		})
	}
}
