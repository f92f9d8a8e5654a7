package leasing

// The network boundary of the serving stack. Serve wraps an Engine in
// the HTTP/JSON lease service handler (the one cmd/leased runs) and
// Dial returns the Go client for a running daemon — so tenants can
// submit demands remotely with the same semantics the in-process engine
// gives: deterministic per-tenant output, flush read barriers, and
// bounded ingestion (backpressure surfaces as retried 429s inside the
// client's Submit). The wire protocol — event encodings, open-session
// specs, endpoint declarations and error codes — lives in
// internal/wire, and docs/API.md is generated from it; docs/OPERATIONS.md
// covers running the daemon.

import (
	"io"

	"leasing/internal/client"
	"leasing/internal/server"
	"leasing/internal/wire"
)

// LeaseServer is the lease service http.Handler; build one with Serve.
type LeaseServer = server.Server

// LeaseServerConfig shapes a LeaseServer: per-tenant auth tokens and
// ingestion chunking. The zero value serves unauthenticated with
// defaults.
type LeaseServerConfig = server.Config

// RemoteClient is the Go client of a lease service; build one with Dial.
type RemoteClient = client.Client

// RemoteClientOptions shapes a RemoteClient: bearer token, HTTP client,
// submit chunking and backpressure retry policy.
type RemoteClientOptions = client.Options

// RemoteOpenRequest describes a session to open remotely: the algorithm
// domain, the lease configuration, a seed for the randomized domains,
// and the instance spec for the instance-based ones. Construction is
// deterministic: the same request always builds the same algorithm. An
// instance spec's demand stream is optional and never read by a served
// session; RemoteClient.Open sends the request without it
// (RemoteOpenRequest.WithoutStream).
type RemoteOpenRequest = wire.OpenRequest

// RemoteLeaseType is one lease type of a RemoteOpenRequest.
type RemoteLeaseType = wire.LeaseType

// RemoteEvent is one demand in its wire (JSON) form.
type RemoteEvent = wire.Event

// Serve wraps eng in the lease service handler serving the HTTP/JSON
// protocol of docs/API.md: per-tenant session endpoints (open, submit
// as a JSON event array or binary frames, flush, close) plus cost,
// snapshot, result and metrics reads, with backpressure mapped to 429s. The caller keeps
// ownership of eng — shut the HTTP server down first, then Close the
// engine to drain, as cmd/leased does on SIGTERM.
func Serve(eng *Engine, cfg LeaseServerConfig) *LeaseServer {
	return server.New(eng, cfg)
}

// Dial returns a client for the lease service at baseURL (e.g.
// "http://127.0.0.1:8080"). The client chunks Submit calls, retries
// backpressure 429s with exponential backoff resuming after the
// server's accepted count, and decodes wire errors into typed values.
func Dial(baseURL string, opts RemoteClientOptions) *RemoteClient {
	return client.New(baseURL, opts)
}

// WireEvents converts in-process events to their wire form, the payload
// of RemoteClient.Submit.
func WireEvents(evs []Event) ([]RemoteEvent, error) {
	return wire.FromStreamEvents(evs)
}

// ReadEvents decodes a JSON array of wire events — the default body of
// POST /v1/tenants/{tenant}/events, and the trace format cmd/leasegen
// writes — into in-process events. It rejects an unknown kind and a
// time regression within the array, exactly as the submit endpoint
// does.
func ReadEvents(r io.Reader) ([]Event, error) { return wire.ReadEvents(r) }

// WireLeaseTypes converts a lease configuration to the Types field of a
// RemoteOpenRequest.
func WireLeaseTypes(cfg *LeaseConfig) []RemoteLeaseType {
	return wire.ConfigTypes(cfg)
}
