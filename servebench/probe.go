package main

// The seams a round installs into its nodes and clients. Every seam
// exists in the library already; nothing here changes the code under
// test:
//
//   - LeaseServerConfig.Builder returns a forwarding Leaser. Untraced,
//     it only stamps the clock when a submitted chunk's last event has
//     been applied (a counter compare per event, a clock read per
//     chunk) — the one way to see "applied" from outside without
//     polling. Traced, it also times Observe per event into per-domain
//     counters and times the Cost + Snapshot publish.
//   - RemoteClientOptions.HTTPClient and ClusterShipperOptions.HTTPClient
//     take a round-tripper that records the client's and the shipper's
//     HTTP round trips and carries the request id to the server.
//   - A wrapper around the leasing.Serve handler records the submit,
//     snapshot and replicate handlers.
//   - A forwarding EngineWAL records each LogEvents append.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leasing"
)

// Headers the traced round-tripper adds: the request id (tenant and
// chunk index) and the id of the span that sent the request.
const (
	headerReq    = "X-Servebench-Request"
	headerParent = "X-Servebench-Parent"
)

// span is one timed call into a layer. Times are nanoseconds since the
// run's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is s's duration minus the part of it that its children
// cover. Overlapping children count once; time a child spends outside
// s counts not at all.
func selfTime(s span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	covered, reach := int64(0), s.Start
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			covered += v.hi - lo
			reach = v.hi
		}
	}
	return s.dur() - covered
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// writeSpans dumps spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// reqID names a submitted chunk: its tenant and chunk index.
func reqID(tenant string, chunk int) string { return tenant + "/" + strconv.Itoa(chunk) }

// chunkRun is one tenant's per-round completion record: for each
// submitted chunk, when its last event's Observe returned.
type chunkRun struct {
	t       *tenant
	applied []atomic.Int64 // ns since the epoch; written by the shard goroutine
}

// counter is a nanosecond total and an event count, updated from shard
// goroutines.
type counter struct{ ns, n atomic.Int64 }

// probe is one round's instrumentation. tr is nil on untraced rounds,
// and then only the completion stamps run.
type probe struct {
	epoch time.Time
	chunk int
	tr    *tracer
	runs  map[string]*chunkRun // by tenant; fixed before the first open

	// opening is the tenant being opened: opens are sequential, so the
	// Builder call it triggers belongs to it.
	mu      sync.Mutex
	opening string

	// Requests sent and requests that failed after the client's own
	// retries.
	ops, failedOps atomic.Int64

	// Traced counters.
	apply         map[string]*counter // Observe time by domain
	publish       counter             // Cost + Snapshot time; n counts publishes
	busy          atomic.Int64        // apply + publish ns
	submitBytes   atomic.Int64
	submits       atomic.Int64
	backpressured atomic.Int64
	inflight      sync.Map // tenant -> span of its running submit handler
}

func newProbe(epoch time.Time, chunk int, tr *tracer, ts []*tenant, domains []string) *probe {
	p := &probe{epoch: epoch, chunk: chunk, tr: tr, runs: map[string]*chunkRun{}, apply: map[string]*counter{}}
	for _, t := range ts {
		p.runs[t.name] = &chunkRun{t: t, applied: make([]atomic.Int64, (len(t.events)+chunk-1)/chunk)}
	}
	for _, d := range domains {
		p.apply[d] = &counter{}
	}
	return p
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// counts samples the traced counters.
func (p *probe) counts() layerCounts {
	c := layerCounts{
		submitBytes: p.submitBytes.Load(), submits: p.submits.Load(), backpressured: p.backpressured.Load(),
		publishNS: p.publish.ns.Load(), publishes: p.publish.n.Load(),
		applyNS: map[string]int64{}, applyN: map[string]int64{},
	}
	for d, a := range p.apply {
		c.applyNS[d], c.applyN[d] = a.ns.Load(), a.n.Load()
	}
	return c
}

func (p *probe) traced() bool { return p.tr != nil }

// open runs fn — the open request of tenant — with the Builder bound to
// that tenant.
func (p *probe) open(tenant string, fn func() error) error {
	p.mu.Lock()
	p.opening = tenant
	p.mu.Unlock()
	return fn()
}

// builder is the LeaseServerConfig.Builder: the spec's own Leaser
// behind the round's forwarding Leaser.
func (p *probe) builder(req *leasing.RemoteOpenRequest) (leasing.Leaser, error) {
	inner, err := req.Build()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	name := p.opening
	p.mu.Unlock()
	run := p.runs[name]
	if run == nil {
		return nil, fmt.Errorf("servebench: open of an unregistered tenant %q", name)
	}
	st := stampLeaser{Leaser: inner, run: run, p: p, next: min(p.chunk, len(run.t.events))}
	if !p.traced() {
		return &st, nil
	}
	return &tracedLeaser{stampLeaser: st, dom: p.apply[run.t.domain]}, nil
}

// stampLeaser forwards to the tenant's Leaser and stamps the clock when
// a chunk's last event has been applied.
type stampLeaser struct {
	leasing.Leaser
	run  *chunkRun
	p    *probe
	n    int // events applied; shard goroutine only
	next int // n at which the current chunk completes
}

func (l *stampLeaser) Observe(ev leasing.Event) (leasing.Decision, error) {
	d, err := l.Leaser.Observe(ev)
	if err == nil {
		if l.n++; l.n == l.next {
			l.stamp(l.p.now())
		}
	}
	return d, err
}

// stamp records the completion of the chunk ending at event n.
func (l *stampLeaser) stamp(at int64) {
	l.run.applied[(l.n-1)/l.p.chunk].Store(at)
	l.next = min(l.n+l.p.chunk, len(l.run.t.events))
}

// tracedLeaser adds the apply and publish timing of traced rounds and
// one engine.apply span per chunk, from its first Observe to its last.
type tracedLeaser struct {
	stampLeaser
	dom        *counter
	chunkStart int64
}

func (l *tracedLeaser) Observe(ev leasing.Event) (leasing.Decision, error) {
	t0 := l.p.now()
	if l.n%l.p.chunk == 0 {
		l.chunkStart = t0
	}
	d, err := l.Leaser.Observe(ev)
	t1 := l.p.now()
	l.dom.ns.Add(t1 - t0)
	l.dom.n.Add(1)
	l.p.busy.Add(t1 - t0)
	if err == nil {
		if l.n++; l.n == l.next {
			k := (l.n - 1) / l.p.chunk
			l.p.tr.record(span{ID: l.p.tr.newID(), Name: "engine.apply", Req: reqID(l.run.t.name, k), Start: l.chunkStart, End: t1})
			l.stamp(t1)
		}
	}
	return d, err
}

func (l *tracedLeaser) Cost() leasing.CostBreakdown {
	t0 := l.p.now()
	c := l.Leaser.Cost()
	d := l.p.now() - t0
	l.p.publish.ns.Add(d)
	l.p.busy.Add(d)
	return c
}

func (l *tracedLeaser) Snapshot() leasing.Solution {
	t0 := l.p.now()
	s := l.Leaser.Snapshot()
	d := l.p.now() - t0
	l.p.publish.ns.Add(d)
	l.p.publish.n.Add(1)
	l.p.busy.Add(d)
	return s
}

// ctxKey carries the calling span into the traced round-tripper.
type ctxKey struct{}

type callInfo struct {
	span uint64
	req  string
}

// withCall starts a benchmark-side span for one client call; end
// records it.
func (p *probe) withCall(ctx context.Context, name, req string) (context.Context, func()) {
	if !p.traced() {
		return ctx, func() {}
	}
	s := span{ID: p.tr.newID(), Name: name, Req: req, Start: p.now()}
	return context.WithValue(ctx, ctxKey{}, callInfo{span: s.ID, req: req}), func() {
		s.End = p.now()
		p.tr.record(s)
	}
}

// roundTripper wraps a transport. Traced, it records each round trip as
// a span named name and forwards the request id and its span id to the
// server in headers.
type roundTripper struct {
	base http.RoundTripper
	p    *probe
	name string
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.p.traced() {
		return rt.base.RoundTrip(req)
	}
	s := span{ID: rt.p.tr.newID(), Name: rt.name}
	if ci, ok := req.Context().Value(ctxKey{}).(callInfo); ok {
		s.Parent, s.Req = ci.span, ci.req
	}
	req = req.Clone(req.Context())
	req.Header.Set(headerParent, strconv.FormatUint(s.ID, 10))
	if s.Req != "" {
		req.Header.Set(headerReq, s.Req)
	}
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/events") {
		rt.p.submitBytes.Add(req.ContentLength)
	}
	s.Start = rt.p.now()
	resp, err := rt.base.RoundTrip(req)
	s.End = rt.p.now()
	rt.p.tr.record(s)
	return resp, err
}

// httpClient is the client a round's callers use toward its nodes.
func (p *probe) httpClient(base http.RoundTripper, name string) *http.Client {
	return &http.Client{Transport: roundTripper{base: base, p: p, name: name}}
}

// statusWriter remembers the response status.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handler wraps a node's handler. Traced, it records the submit,
// snapshot and replicate handlers as spans (children of the client's
// round trip) and counts 429 answers; other requests pass through.
func (p *probe) handler(h http.Handler) http.Handler {
	if !p.traced() {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/events"):
			name = "server.submit"
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/snapshot"):
			name = "server.snapshot"
		case r.Method == http.MethodPost && r.URL.Path == "/v1/replica/records":
			name = "cluster.follower_append"
		default:
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: p.tr.newID(), Name: name, Req: r.Header.Get(headerReq), Start: p.now()}
		s.Parent, _ = strconv.ParseUint(r.Header.Get(headerParent), 10, 64)
		var tenant string
		if name == "server.submit" {
			tenant = strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/tenants/"), "/events")
			p.inflight.Store(tenant, s)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		s.End = p.now()
		if name == "server.submit" {
			p.inflight.Delete(tenant)
			p.submits.Add(1)
			if sw.status == http.StatusTooManyRequests {
				p.backpressured.Add(1)
			}
		}
		p.tr.record(s)
	})
}

// tracedWAL forwards to the node's EngineWAL and records each event
// append as a child of the submit handler that made it.
type tracedWAL struct {
	leasing.EngineWAL
	p *probe
}

func (w tracedWAL) LogEvents(tenant string, evs []leasing.Event) error {
	s := span{ID: w.p.tr.newID(), Name: "wal.append", Start: w.p.now()}
	err := w.EngineWAL.LogEvents(tenant, evs)
	s.End = w.p.now()
	if v, ok := w.p.inflight.Load(tenant); ok {
		parent := v.(span)
		s.Parent, s.Req = parent.ID, parent.Req
	}
	w.p.tr.record(s)
	return err
}
