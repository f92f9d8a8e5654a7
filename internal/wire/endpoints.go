package wire

// Endpoint declarations and the generated API reference. Everything the
// server routes on — method, path, auth scope, request/response types,
// error codes — is declared here once; internal/server builds its mux
// from the same constants and cmd/leasereport renders docs/API.md from
// APIMarkdown, whose -check gate keeps the committed reference
// byte-identical to these declarations.

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	"strings"
)

// Error is the body of every non-2xx response.
type Error struct {
	Code     string `json:"code" doc:"machine-readable error code (see the error table)"`
	Message  string `json:"message" doc:"human-readable detail"`
	Accepted int    `json:"accepted,omitempty" doc:"events enqueued before the failure (submit endpoint only); resume after this offset"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Error codes, one per failure class the service reports.
const (
	// CodeBadRequest: malformed JSON, an unknown event kind, an invalid
	// spec, or a time regression within one submitted batch. Not
	// retryable. (A time regression across separate submits cannot be
	// caught synchronously; it surfaces later as session_failed.)
	CodeBadRequest = "bad_request"
	// CodeUnauthorized: auth is enabled and the request carried no
	// (or an unknown) bearer token.
	CodeUnauthorized = "unauthorized"
	// CodeForbidden: the token is valid but scoped to another tenant.
	CodeForbidden = "forbidden"
	// CodeUnknownTenant: the tenant was never opened.
	CodeUnknownTenant = "unknown_tenant"
	// CodeDuplicateTenant: open of an already-open tenant.
	CodeDuplicateTenant = "duplicate_tenant"
	// CodeTenantClosed: close of an already-closed tenant.
	CodeTenantClosed = "tenant_closed"
	// CodeBackpressure: the tenant's shard queue is full. Retryable:
	// back off and resume after the reported accepted count.
	CodeBackpressure = "backpressure"
	// CodeNotRecording: result read from a daemon running without
	// -record.
	CodeNotRecording = "not_recording"
	// CodeSessionFailed: the tenant's algorithm rejected an event; the
	// session is sealed at its state before the failure.
	CodeSessionFailed = "session_failed"
	// CodeStorageFailed: the daemon runs durable (-data-dir) and the
	// write-ahead-log append failed; the operation was not applied.
	CodeStorageFailed = "storage_failed"
	// CodeShuttingDown: the daemon is draining for shutdown.
	CodeShuttingDown = "shutting_down"
	// CodeNotClustered: a replication endpoint was called on a daemon
	// running without -peers.
	CodeNotClustered = "not_clustered"
)

// HTTPStatus maps an error code to its HTTP status.
func HTTPStatus(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnauthorized:
		return http.StatusUnauthorized
	case CodeForbidden:
		return http.StatusForbidden
	case CodeUnknownTenant:
		return http.StatusNotFound
	case CodeDuplicateTenant, CodeTenantClosed, CodeNotRecording, CodeNotClustered:
		return http.StatusConflict
	case CodeBackpressure:
		return http.StatusTooManyRequests
	case CodeShuttingDown:
		return http.StatusServiceUnavailable
	case CodeStorageFailed:
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// OpenResponse acknowledges an opened session.
type OpenResponse struct {
	Tenant string `json:"tenant" doc:"the opened tenant"`
	Domain string `json:"domain" doc:"the session's algorithm family"`
}

// SubmitResponse acknowledges enqueued events. Delivery is asynchronous:
// acceptance means the events are queued on the tenant's shard, and the
// flush endpoint is the barrier that makes them visible to reads.
type SubmitResponse struct {
	Accepted int `json:"accepted" doc:"events enqueued by this request"`
}

// FlushResponse acknowledges a completed flush barrier.
type FlushResponse struct {
	Flushed bool `json:"flushed" doc:"always true on success"`
}

// CloseResponse reports a sealed session's final totals.
type CloseResponse struct {
	Tenant string        `json:"tenant" doc:"the closed tenant"`
	Events int64         `json:"events" doc:"events processed over the session's lifetime"`
	Cost   CostBreakdown `json:"cost" doc:"final cost breakdown"`
}

// EventsResponse reports a session's processed-event count.
type EventsResponse struct {
	Processed int64 `json:"processed" doc:"events processed, current as of the last published batch"`
}

// HealthResponse is the liveness probe body.
type HealthResponse struct {
	Status string `json:"status" doc:"always \"ok\" while the daemon accepts work"`
}

// ReplicateResponse acknowledges applied replication records.
type ReplicateResponse struct {
	Applied int `json:"applied" doc:"write-ahead-log records appended to the follower log by this request"`
}

// ActivateRequest scopes a failover activation.
type ActivateRequest struct {
	Down []string `json:"down,omitempty" doc:"peer base URLs that are down; only follower sessions whose ring owner is in this list are adopted. Empty (or an empty body) adopts every follower session not already active locally"`
}

// ActivateResponse reports a completed failover activation.
type ActivateResponse struct {
	Activated int `json:"activated" doc:"follower sessions recovered into the serving engine; sessions already active count zero (activation is idempotent)"`
}

// Endpoint declares one route of the service.
//
//lint:allow-wiretags route declaration table consumed in-process by server and docs generators; never serialized onto the wire
type Endpoint struct {
	Name     string // short identifier, e.g. "submit"
	Method   string
	Path     string // mux pattern; {tenant} is the tenant path variable
	Auth     string // AuthNone, AuthTenant or AuthAdmin
	Summary  string
	Request  any      // zero value of the request body type; nil when none
	Response any      // zero value of the response body type
	Errors   []string // error codes this endpoint returns (beyond auth)
	Notes    string   // extra semantics (streaming, barriers, retries)
}

// Auth scopes of Endpoint.Auth.
const (
	// AuthNone: always open, even with auth enabled.
	AuthNone = "none"
	// AuthTenant: requires a token scoped to the path's tenant (or the
	// admin token) when auth is enabled.
	AuthTenant = "tenant"
	// AuthAdmin: requires the admin token ("*" scope) when auth is
	// enabled.
	AuthAdmin = "admin"
)

// Endpoints declares every route of the lease service, in documentation
// order. internal/server registers exactly these.
func Endpoints() []Endpoint {
	return []Endpoint{
		{
			Name:    "open",
			Method:  http.MethodPost,
			Path:    "/v1/tenants/{tenant}",
			Auth:    AuthTenant,
			Summary: "Open a tenant session from a full instance spec.",
			Request: OpenRequest{}, Response: OpenResponse{},
			Errors: []string{CodeBadRequest, CodeDuplicateTenant, CodeStorageFailed, CodeShuttingDown},
			Notes: "Construction is deterministic: the same spec (including seed) " +
				"always builds the same algorithm, so a remote session is exactly " +
				"reproducible by a local replay of the same spec and events. On a " +
				"durable daemon (-data-dir) the spec is write-ahead logged before " +
				"the open is acknowledged, and recovery rebuilds the session from " +
				"it after a restart (see docs/DURABILITY.md).",
		},
		{
			Name:    "submit",
			Method:  http.MethodPost,
			Path:    "/v1/tenants/{tenant}/events",
			Auth:    AuthTenant,
			Summary: "Submit a batch of events for the tenant.",
			Request: []Event{}, Response: SubmitResponse{},
			Errors: []string{CodeBadRequest, CodeBackpressure, CodeStorageFailed, CodeShuttingDown},
			Notes: "The body is either a JSON array of events (the trace format " +
				"cmd/leasegen writes, so a trace file can be posted unchanged) or, with " +
				"Content-Type application/x-ndjson, a stream of one JSON event per " +
				"line (the bulk-ingestion path; events are enqueued in chunks while " +
				"the body streams in). With Content-Type application/x-lease-binary " +
				"the body is the compact binary framing instead (see the binary " +
				"framing section) — the same events, decoded on a pooled " +
				"zero-allocation path; a session may switch encodings freely " +
				"between requests. Events must arrive in non-decreasing time " +
				"order per tenant, from one submitter: a regression inside one " +
				"request fails fast with 400 bad_request, while a regression " +
				"across separate requests is only seen by the shard as it applies " +
				"the events and therefore surfaces asynchronously — the session " +
				"fails and later reads return session_failed. When the tenant's " +
				"shard queue is full the request fails fast with 429 backpressure " +
				"and reports how many events were already accepted — resume after " +
				"that offset once the queue drains. Events for an unknown, closed " +
				"or failed tenant are accepted and then dropped (counted in " +
				"metrics), matching the engine's asynchronous delivery contract.",
		},
		{
			Name:    "flush",
			Method:  http.MethodPost,
			Path:    "/v1/tenants/{tenant}/flush",
			Auth:    AuthTenant,
			Summary: "Block until every previously submitted event is processed and published.",
			Request: nil, Response: FlushResponse{},
			Errors: []string{CodeShuttingDown},
			Notes: "The flush barrier is engine-wide: it covers every tenant's " +
				"prior submissions, in particular this tenant's. After it returns, " +
				"cost, snapshot and result reads reflect everything submitted " +
				"before the flush.",
		},
		{
			Name:    "close",
			Method:  http.MethodDelete,
			Path:    "/v1/tenants/{tenant}",
			Auth:    AuthTenant,
			Summary: "Seal the tenant's session and report its final totals.",
			Request: nil, Response: CloseResponse{},
			Errors: []string{CodeUnknownTenant, CodeTenantClosed, CodeStorageFailed, CodeShuttingDown},
			Notes: "Close waits for the tenant's queued events, publishes the " +
				"final state, then drops any later events (counted in metrics). " +
				"Reads keep serving the final state after close. On a durable " +
				"daemon, close is also the retention boundary: the next WAL " +
				"compaction reclaims a closed tenant's logged history.",
		},
		{
			Name:    "cost",
			Method:  http.MethodGet,
			Path:    "/v1/tenants/{tenant}/cost",
			Auth:    AuthTenant,
			Summary: "Read the tenant's cumulative cost breakdown.",
			Request: nil, Response: CostBreakdown{},
			Errors: []string{CodeUnknownTenant, CodeSessionFailed},
			Notes: "Served from cached per-session state, current as of the last " +
				"batch the tenant's shard processed; flush first to synchronize.",
		},
		{
			Name:    "events",
			Method:  http.MethodGet,
			Path:    "/v1/tenants/{tenant}/events",
			Auth:    AuthTenant,
			Summary: "Read how many of the tenant's events have been processed.",
			Request: nil, Response: EventsResponse{},
			Errors: []string{CodeUnknownTenant, CodeSessionFailed},
		},
		{
			Name:    "snapshot",
			Method:  http.MethodGet,
			Path:    "/v1/tenants/{tenant}/snapshot",
			Auth:    AuthTenant,
			Summary: "Read the tenant's current solution snapshot.",
			Request: nil, Response: Solution{},
			Errors: []string{CodeUnknownTenant, CodeSessionFailed},
			Notes: "Not cached: each read is queued behind the tenant's pending " +
				"work and computed by its shard, at O(p log p) for p purchases, so " +
				"it covers every event submitted before it without a flush. A " +
				"tenant with no applied events returns its algorithm's empty " +
				"snapshot (an empty leases list).",
		},
		{
			Name:    "result",
			Method:  http.MethodGet,
			Path:    "/v1/tenants/{tenant}/result",
			Auth:    AuthTenant,
			Summary: "Read the tenant's full recorded run (requires -record).",
			Request: nil, Response: Run{},
			Errors: []string{CodeUnknownTenant, CodeNotRecording, CodeSessionFailed},
			Notes: "The run is byte-identical to what a single-threaded Replay of " +
				"the session's events produces — the service's determinism anchor. " +
				"The response is always JSON, whatever the Accept header asks for.",
		},
		{
			Name:    "replicate",
			Method:  http.MethodPost,
			Path:    "/v1/replica/records",
			Auth:    AuthAdmin,
			Summary: "Apply shipped write-ahead-log records to this node's follower log.",
			Request: nil, Response: ReplicateResponse{},
			Errors: []string{CodeBadRequest, CodeNotClustered, CodeStorageFailed, CodeShuttingDown},
			Notes: "The log-shipping ingest half of cluster replication (leased " +
				"-peers; see docs/CLUSTER.md). The body is the binary framing: the " +
				"magic followed by one frame per record, each frame payload a " +
				"record-kind byte and the record's encoded payload — exactly the " +
				"bytes the primary appended to its own write-ahead log. Records " +
				"are applied in body order; a tenant's records must be shipped in " +
				"the order the primary acknowledged them. Application is atomic " +
				"per record, not per body: on a mid-body failure the error " +
				"reports how many records were applied, and because re-applied " +
				"records replay idempotently through recovery's last-write-wins " +
				"session state, a primary may safely re-ship from its last " +
				"acknowledged offset.",
		},
		{
			Name:    "activate",
			Method:  http.MethodPost,
			Path:    "/v1/replica/activate",
			Auth:    AuthAdmin,
			Summary: "Recover this node's follower sessions into its serving engine.",
			Request: ActivateRequest{}, Response: ActivateResponse{},
			Errors: []string{CodeBadRequest, CodeNotClustered, CodeStorageFailed, CodeShuttingDown},
			Notes: "The failover half of cluster replication: follower-log sessions " +
				"whose ring owner is in the request's down list (every session, " +
				"when the list is empty) and which are not already active locally " +
				"are rebuilt from their shipped spec and event history — the same " +
				"deterministic replay as crash recovery — and begin serving reads " +
				"and accepting events on this node. Scoping to down owners keeps a " +
				"survivor from adopting tenants a healthy primary still serves. " +
				"Before a session is activated its history is copied into this " +
				"node's own write-ahead log, so the adopted tenant survives a " +
				"later crash of the adopting node too. Activation is idempotent; " +
				"already-active tenants are skipped.",
		},
		{
			Name:    "metrics",
			Method:  http.MethodGet,
			Path:    "/v1/metrics",
			Auth:    AuthAdmin,
			Summary: "Sample the engine's per-shard and aggregate counters.",
			Request: nil, Response: Metrics{},
			Notes: "Content-negotiated: JSON by default; `Accept: text/plain` or " +
				"`?format=prometheus` returns the same counters in the Prometheus " +
				"text exposition (plus WAL and per-endpoint HTTP families).",
		},
		{
			Name:    "health",
			Method:  http.MethodGet,
			Path:    "/v1/healthz",
			Auth:    AuthNone,
			Summary: "Liveness probe.",
			Request: nil, Response: HealthResponse{},
		},
	}
}

// APIMarkdown renders the endpoint reference (the body of docs/API.md)
// from the declarations above. The output is a pure function of this
// package, so cmd/leasereport's -check gate can regenerate and compare
// it byte for byte.
func APIMarkdown() []byte {
	var b bytes.Buffer
	b.WriteString(`# API — the leased HTTP/JSON protocol

The lease service (` + "`cmd/leased`" + `) fronts the sharded multi-tenant
engine over HTTP/JSON. This reference is generated from the protocol
declarations in ` + "`internal/wire`" + ` — the same declarations the server
routes on and the Go client (` + "`internal/client`" + `, root ` + "`Dial`" + `) speaks —
so it cannot drift from the implementation. Operator-facing setup lives
in [OPERATIONS.md](OPERATIONS.md).

## Conventions

- Request and response bodies are JSON; responses are encoded with
  Content-Type ` + "`application/json`" + `.
- Every non-2xx response carries an ` + "`Error`" + ` body (see the error table).
- With auth enabled (` + "`leased -auth`" + `), requests carry
  ` + "`Authorization: Bearer <token>`" + `. A token is scoped to one tenant; the
  ` + "`*`" + ` scope is the admin token, valid for every tenant and for
  admin-only endpoints.
- In ` + "`leases`" + `, ` + "`assignments`" + `, ` + "`decisions`" + ` and ` + "`curve`" + ` fields,
  ` + "`null`" + ` and ` + "`[]`" + ` are distinct on purpose: the wire preserves the
  in-process representation exactly, so a run fetched over HTTP compares
  byte-identical to a local replay.

## Endpoints

`)
	for _, ep := range Endpoints() {
		fmt.Fprintf(&b, "### `%s %s` — %s\n\n%s\n\n", ep.Method, ep.Path, ep.Name, ep.Summary)
		fmt.Fprintf(&b, "- Auth: %s\n", authDoc(ep.Auth))
		if ep.Request != nil {
			fmt.Fprintf(&b, "- Request: %s\n", typeRef(reflect.TypeOf(ep.Request)))
		} else {
			b.WriteString("- Request: none\n")
		}
		fmt.Fprintf(&b, "- Response: %s\n", typeRef(reflect.TypeOf(ep.Response)))
		if len(ep.Errors) > 0 {
			fmt.Fprintf(&b, "- Errors: `%s`\n", strings.Join(ep.Errors, "`, `"))
		}
		b.WriteString("\n")
		if ep.Notes != "" {
			fmt.Fprintf(&b, "%s\n\n", ep.Notes)
		}
	}

	b.WriteString(`## Error codes

| Code | HTTP status | Meaning |
| --- | --- | --- |
`)
	for _, c := range []struct{ code, meaning string }{
		{CodeBadRequest, "malformed JSON, unknown event kind, invalid spec, or in-request time regression; not retryable"},
		{CodeUnauthorized, "auth enabled and no (or an unknown) bearer token presented"},
		{CodeForbidden, "valid token scoped to a different tenant"},
		{CodeUnknownTenant, "the tenant was never opened"},
		{CodeDuplicateTenant, "open of an already-open tenant"},
		{CodeTenantClosed, "close of an already-closed tenant"},
		{CodeBackpressure, "the tenant's shard queue is full; back off and resume after the reported accepted count"},
		{CodeNotRecording, "result read from a daemon running without -record"},
		{CodeSessionFailed, "the tenant's algorithm rejected an event (e.g. a cross-request time regression); the session is sealed at its pre-failure state"},
		{CodeStorageFailed, "the durable daemon's write-ahead-log append failed; the operation was not applied"},
		{CodeShuttingDown, "the daemon is draining for shutdown"},
		{CodeNotClustered, "a replication endpoint was called on a daemon running without -peers"},
	} {
		fmt.Fprintf(&b, "| `%s` | %d | %s |\n", c.code, HTTPStatus(c.code), c.meaning)
	}

	b.WriteString(`
## Backpressure

Ingestion is bounded end to end: each engine shard owns a fixed-depth
operation queue (` + "`leased -queue`" + `), and the submit endpoint enqueues
without blocking. A full queue fails the request fast with ` + "`429`" + ` /
` + "`backpressure`" + ` and an ` + "`accepted`" + ` count of the events already
enqueued; clients back off and resume after that offset (the Go client
does this automatically). 429s are the load signal — sustained 429s mean
the shards cannot keep up with ingestion, so add shards, deepen queues,
or slow producers.

## Binary framing

JSON is the default and the source of truth for this document, but the
submit hot path can switch to the compact binary framing per request:
` + "`Content-Type: application/x-lease-binary`" + ` makes the body binary
frames, decoded on a pooled zero-allocation path. Everything else —
responses (the recorded run included), errors, every other endpoint —
is JSON. A session may switch submit encodings freely between requests;
the two decode to identical values, so mixed-encoding histories replay
byte-identical to single-encoding ones. The replicate endpoint uses the
same magic and frames, one write-ahead-log record per frame.

A binary submit body is the magic ` + "`LEB1`" + ` followed by frames, each
decoded and enqueued as it is read (the NDJSON-equivalent chunked
path). Integers are varints (zigzag for signed values), lengths plain
uvarints, floats raw IEEE-754 little-endian bits — so every float
round-trips exactly, including NaN payloads and negative zero. A frame
payload is capped at 16 MiB; a larger declared length is rejected as
corruption before any buffer is sized from it.

| Field | Encoding | Description |
| --- | --- | --- |
| magic | 4 bytes ` + "`LEB1`" + ` | opens the body; a JSON array posted with the binary Content-Type fails fast |
| frame* | uvarint length + payload | one frame per chunk |
| frame payload | uvarint count + events | the chunk's events, in order |

Each event is a kind byte, a zigzag-varint time, then the kind's
fields:

| Kind | Byte | Fields after time |
| --- | --- | --- |
| ` + "`day`" + ` | 1 | none |
| ` + "`element`" + ` | 2 | varint elem, varint p |
| ` + "`window`" + ` | 3 | varint d |
| ` + "`element_window`" + ` | 4 | varint elem, varint d |
| ` + "`batch`" + ` | 5 | presence byte (0 = null), then uvarint count and count × (8-byte x bits, 8-byte y bits) |
| ` + "`connect`" + ` | 6 | varint s, varint u |
| ` + "`use`" + ` | 7 | varint dur |

The encoding is canonical — an empty client list encodes as null and
every other field travels as sent, so re-encoding a decoded body is
byte-identical and a write-ahead-log record replays exactly what the
session applied. The Go client submits in the framing with
` + "`RemoteClientOptions{Binary: true}`" + ` (` + "`leaseload -nodes 1 -binary`" + `
load-tests it) and applies the JSON defaults as it encodes (an absent
or zero ` + "`p`" + ` or ` + "`dur`" + ` reads as 1), so its binary and JSON
submits produce the same values; a negative multiplicity or duration
reaches the session unchanged on both.

## Wire types

One table per JSON object, fields in declaration order. Types are JSON
types; ` + "`integer`" + ` fields are 64-bit.

`)
	b.Write(schemaTables(Endpoints()))
	b.WriteString("\n")
	return b.Bytes()
}

func authDoc(a string) string {
	switch a {
	case AuthNone:
		return "none (open even with auth enabled)"
	case AuthTenant:
		return "tenant token (or admin token)"
	case AuthAdmin:
		return "admin token"
	default:
		return a
	}
}

// typeRef renders a request/response type reference for the endpoint
// list: named object types link to their schema table.
func typeRef(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Slice:
		return "JSON array of " + typeRef(t.Elem())
	case reflect.Pointer:
		return typeRef(t.Elem())
	case reflect.Struct:
		return "`" + t.Name() + "` object"
	default:
		return t.Kind().String()
	}
}

// schemaTables walks every struct type reachable from the endpoints'
// request and response declarations (plus Error, which every endpoint
// can return) in first-reference order and renders one field table per
// type.
func schemaTables(eps []Endpoint) []byte {
	var order []reflect.Type
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Slice, reflect.Pointer:
			walk(t.Elem())
		case reflect.Struct:
			if seen[t] {
				return
			}
			seen[t] = true
			order = append(order, t)
			for i := 0; i < t.NumField(); i++ {
				walk(t.Field(i).Type)
			}
		}
	}
	for _, ep := range eps {
		if ep.Request != nil {
			walk(reflect.TypeOf(ep.Request))
		}
		walk(reflect.TypeOf(ep.Response))
	}
	walk(reflect.TypeOf(Error{}))

	var b bytes.Buffer
	for _, t := range order {
		fmt.Fprintf(&b, "### `%s`\n\n| Field | Type | Description |\n| --- | --- | --- |\n", t.Name())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
			doc := f.Tag.Get("doc")
			if strings.Contains(opts, "omitempty") {
				doc = strings.TrimSuffix(doc, ".") + " (optional)"
				doc = strings.TrimPrefix(doc, " ")
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s |\n", name, jsonType(f.Type), doc)
		}
		b.WriteString("\n")
	}
	return bytes.TrimRight(b.Bytes(), "\n")
}

// jsonType renders a field's JSON type.
func jsonType(t reflect.Type) string {
	switch t.Kind() {
	case reflect.String:
		return "string"
	case reflect.Bool:
		return "boolean"
	case reflect.Int, reflect.Int64:
		return "integer"
	case reflect.Float64:
		return "number"
	case reflect.Slice:
		return "array of " + jsonType(t.Elem())
	case reflect.Pointer:
		return jsonType(t.Elem())
	case reflect.Struct:
		return "`" + t.Name() + "` object"
	default:
		return t.Kind().String()
	}
}
