// Package server is the HTTP/JSON serving layer over the sharded
// multi-tenant engine: it routes the endpoints declared in
// internal/wire, translates engine errors into the wire error codes,
// maps shard-queue backpressure to fail-fast 429s, scopes requests with
// per-tenant bearer tokens, and enqueues submitted events in bounded
// chunks. The handler is stateless beyond the engine it fronts,
// so graceful shutdown is the composition of http.Server.Shutdown
// (stop accepting requests) and Engine.Close (drain queued work) — the
// order cmd/leased performs on SIGINT/SIGTERM.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"leasing/internal/engine"
	"leasing/internal/stream"
	"leasing/internal/wal"
	"leasing/internal/wire"
)

// Config shapes a Server. The zero value serves unauthenticated with
// default chunking.
type Config struct {
	// Tokens enables auth when non-empty: it maps a bearer token to the
	// one tenant it may act for, or to "*" for the admin scope (every
	// tenant plus admin-only endpoints). With an empty map every request
	// is allowed.
	Tokens map[string]string
	// ChunkSize caps how many events one engine enqueue carries when a
	// submit body holds more. Default 512.
	ChunkSize int
	// Builder constructs a session's Leaser from an open spec; defaults
	// to the spec's own Build. Tests substitute failing builders.
	Builder func(*wire.OpenRequest) (stream.Leaser, error)
	// WALStats, when non-nil, samples the daemon's write-ahead log so
	// the Prometheus exposition of the metrics endpoint includes the
	// leased_wal_* families (cmd/leased wires it when run durable).
	WALStats func() wal.Stats
	// Cluster enables cluster mode (see cluster.go): placement
	// redirects, the replication ingest endpoint and failover
	// activation. Nil serves single-node; the replication endpoints then
	// answer not_clustered.
	Cluster *ClusterConfig
}

func (c Config) withDefaults() Config {
	if c.ChunkSize < 1 {
		c.ChunkSize = 512
	}
	if c.Builder == nil {
		c.Builder = func(r *wire.OpenRequest) (stream.Leaser, error) { return r.Build() }
	}
	return c
}

// AdminScope is the Tokens value granting access to every tenant and to
// admin-only endpoints.
const AdminScope = "*"

// maxBodyBytes caps every request body.
const maxBodyBytes = 64 << 20

// Server is the http.Handler of the lease service. Create one with New;
// it serves the endpoints declared by wire.Endpoints over the engine it
// fronts.
type Server struct {
	eng     *engine.Engine
	cfg     Config
	cluster *clusterState // nil when not clustered
	mux     *http.ServeMux
	reqs    []*endpointCounter // one per declared endpoint, in declaration order

	// Pools of the binary ingestion path: decoded batches live until the
	// owning shard releases them (engine.TrySubmitBatchRelease), read
	// buffers and bufio readers only for the request. Warm, the path
	// decodes at zero allocations per event.
	batches sync.Pool // *pooledBatch
	readers sync.Pool // *bufio.Reader
	frames  sync.Pool // *[]byte, frame payload scratch
}

// pooledBatch is one poolable decode batch. Its release hook is built
// once, at allocation, so the hot loop hands the shard a prebuilt
// closure instead of allocating one per batch.
type pooledBatch struct {
	wire.EventBatch
	release func()
}

// batch takes a pooled decode batch, reset and ready to fill.
func (s *Server) batch() *pooledBatch {
	pb, _ := s.batches.Get().(*pooledBatch)
	if pb == nil {
		pb = &pooledBatch{}
		pb.release = func() { s.batches.Put(pb) }
	}
	pb.Reset()
	return pb
}

// New builds the service handler over eng. The caller keeps ownership
// of the engine: close it after the HTTP server has shut down, so
// queued work drains exactly once. An invalid Config.Cluster (bad peer
// list, self not a peer, no follower log) panics — it is a startup
// wiring error, and cmd/leased validates its flags before reaching
// here.
func New(eng *engine.Engine, cfg Config) *Server {
	s := &Server{eng: eng, cfg: cfg.withDefaults(), mux: http.NewServeMux()}
	cl, err := newClusterState(cfg.Cluster)
	if err != nil {
		panic(err.Error())
	}
	s.cluster = cl
	handlers := map[string]http.HandlerFunc{
		"open":      s.handleOpen,
		"submit":    s.handleSubmit,
		"flush":     s.handleFlush,
		"close":     s.handleClose,
		"cost":      s.handleCost,
		"events":    s.handleEvents,
		"snapshot":  s.handleSnapshot,
		"result":    s.handleResult,
		"replicate": s.handleReplicate,
		"activate":  s.handleActivate,
		"metrics":   s.handleMetrics,
		"health":    s.handleHealth,
	}
	// The route table is the wire declaration itself, so the served
	// surface cannot drift from the documented one.
	for _, ep := range wire.Endpoints() {
		h, ok := handlers[ep.Name]
		if !ok {
			panic(fmt.Sprintf("server: endpoint %q declared in wire but not implemented", ep.Name))
		}
		if strings.Contains(ep.Path, "{tenant}") {
			// Tenant-scoped endpoints route by placement in cluster mode.
			h = s.redirected(h)
		}
		c := &endpointCounter{name: ep.Name}
		s.reqs = append(s.reqs, c)
		s.mux.HandleFunc(ep.Method+" "+ep.Path, s.instrumented(c, s.authorized(ep.Auth, h)))
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// authorized wraps a handler with the endpoint's auth scope.
func (s *Server) authorized(scope string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if len(s.cfg.Tokens) == 0 || scope == wire.AuthNone {
			h(w, r)
			return
		}
		token, ok := bearerToken(r)
		if !ok {
			writeError(w, wire.CodeUnauthorized, "missing bearer token", 0)
			return
		}
		granted, ok := s.cfg.Tokens[token]
		if !ok {
			writeError(w, wire.CodeUnauthorized, "unknown token", 0)
			return
		}
		if granted != AdminScope {
			if scope == wire.AuthAdmin {
				writeError(w, wire.CodeForbidden, "admin token required", 0)
				return
			}
			if tenant := r.PathValue("tenant"); tenant != granted {
				writeError(w, wire.CodeForbidden,
					fmt.Sprintf("token is scoped to tenant %q", granted), 0)
				return
			}
		}
		h(w, r)
	}
}

func bearerToken(r *http.Request) (string, bool) {
	auth := r.Header.Get("Authorization")
	token, ok := strings.CutPrefix(auth, "Bearer ")
	return token, ok && token != ""
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code, message string, accepted int) {
	writeJSON(w, wire.HTTPStatus(code), &wire.Error{Code: code, Message: message, Accepted: accepted})
}

// writeEngineError maps an engine error onto the wire error codes.
func writeEngineError(w http.ResponseWriter, err error, accepted int) {
	code := wire.CodeSessionFailed
	switch {
	case errors.Is(err, engine.ErrClosed):
		code = wire.CodeShuttingDown
	case errors.Is(err, engine.ErrUnknownTenant):
		code = wire.CodeUnknownTenant
	case errors.Is(err, engine.ErrDuplicateTenant):
		code = wire.CodeDuplicateTenant
	case errors.Is(err, engine.ErrTenantClosed):
		code = wire.CodeTenantClosed
	case errors.Is(err, engine.ErrBackpressure):
		code = wire.CodeBackpressure
	case errors.Is(err, engine.ErrNotRecording):
		code = wire.CodeNotRecording
	case errors.Is(err, engine.ErrWAL):
		code = wire.CodeStorageFailed
	}
	writeError(w, code, err.Error(), accepted)
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	var req wire.OpenRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, wire.CodeBadRequest, "decode open request: "+err.Error(), 0)
		return
	}
	lsr, err := s.cfg.Builder(&req)
	if err != nil {
		writeError(w, wire.CodeBadRequest, "build session: "+err.Error(), 0)
		return
	}
	// A durable engine logs the re-marshaled (canonical) spec without
	// its demand stream, which the session never reads: recovery
	// rebuilds the session from exactly these bytes through the same
	// wire.OpenRequest.Build mapping. Without a WAL the spec is ignored,
	// so it is not encoded at all.
	var spec []byte
	if s.eng.Durable() {
		online := req.WithoutStream()
		if spec, err = json.Marshal(&online); err != nil {
			writeError(w, wire.CodeBadRequest, "encode open spec: "+err.Error(), 0)
			return
		}
	}
	if err := s.eng.OpenSpec(tenant, lsr, spec); err != nil {
		writeEngineError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusCreated, wire.OpenResponse{Tenant: tenant, Domain: req.Domain})
}

// handleSubmit ingests events: a JSON array (the leasegen trace
// format) by default, or length-prefixed binary frames with
// Content-Type application/x-lease-binary — the zero-alloc path,
// decoding straight into pooled stream.Event batches as the body
// streams in. Both enqueue in ChunkSize chunks, and backpressure fails
// fast with the accepted count so callers can resume precisely.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	accepted := 0
	var err error
	if mediaType(r) == wire.ContentTypeBinary {
		err = s.submitBinary(r.Body, tenant, &accepted)
	} else {
		err = s.submitArray(r.Body, tenant, &accepted)
	}
	if err != nil {
		var badReq *badRequestError
		if errors.As(err, &badReq) {
			writeError(w, wire.CodeBadRequest, badReq.Error(), accepted)
		} else {
			writeEngineError(w, err, accepted)
		}
		return
	}
	writeJSON(w, http.StatusOK, wire.SubmitResponse{Accepted: accepted})
}

type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func mediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(strings.ToLower(ct))
}

// submitArray ingests a JSON array submit body, enqueued in ChunkSize
// chunks once the whole array has decoded.
func (s *Server) submitArray(body io.Reader, tenant string, accepted *int) error {
	// ReadEvents fails a within-request time regression before anything
	// is enqueued. (A regression relative to an earlier request is only
	// seen by the shard and surfaces as an asynchronous session
	// failure — see the submit endpoint's documented semantics.)
	evs, err := wire.ReadEvents(body)
	if err != nil {
		return &badRequestError{err.Error()}
	}
	for len(evs) > 0 {
		n := min(s.cfg.ChunkSize, len(evs))
		if err := s.eng.TrySubmitBatch(tenant, evs[:n:n]); err != nil {
			return err
		}
		*accepted += n
		evs = evs[n:]
	}
	return nil
}

// submitBinary ingests a binary submit body: its frames are decoded
// into pooled event batches and enqueued in ChunkSize chunks as they
// arrive. Each enqueued batch is recycled only when its owning shard
// releases it, so the arenas the events point into are never reused
// under a shard still applying them.
func (s *Server) submitBinary(body io.Reader, tenant string, accepted *int) error {
	seen := 0
	var last int64
	return s.readFrames(body, func(frame []byte) error {
		var er wire.EventReader
		if err := er.Init(frame); err != nil {
			return &badRequestError{err.Error()}
		}
		for er.Remaining() > 0 {
			eb := s.batch()
			if _, err := er.Next(&eb.EventBatch, s.cfg.ChunkSize); err != nil {
				s.batches.Put(eb)
				return &badRequestError{err.Error()}
			}
			// Same within-request order check as the array path; prior
			// chunks may already be enqueued, so the error carries the
			// accepted count for precise resumption.
			for _, ev := range eb.Events {
				if seen > 0 && ev.Time < last {
					s.batches.Put(eb)
					return &badRequestError{fmt.Sprintf(
						"event %d (t=%d) precedes its predecessor (t=%d)", seen, ev.Time, last)}
				}
				last = ev.Time
				seen++
			}
			n := len(eb.Events)
			if n == 0 {
				s.batches.Put(eb)
				continue
			}
			if err := s.eng.TrySubmitBatchRelease(tenant, eb.Events, eb.release); err != nil {
				// Nothing was enqueued, so the release hook will not run;
				// the batch is ours to recycle.
				s.batches.Put(eb)
				return err
			}
			*accepted += n
		}
		return nil
	})
}

// readFrames reads a binary-framed body — the magic, then
// uvarint-length-prefixed frames of 1 to wire.MaxFrameBytes bytes — and
// hands each frame to fn in body order. The frame lives in a pooled
// buffer that is reused for the next frame, so fn must not keep it. A
// clean end of body between frames returns nil; a framing fault returns
// a *badRequestError; fn's own error stops the read and is returned as
// is.
func (s *Server) readFrames(body io.Reader, fn func(frame []byte) error) error {
	br, _ := s.readers.Get().(*bufio.Reader)
	if br == nil {
		br = bufio.NewReaderSize(body, 64*1024)
	} else {
		br.Reset(body)
	}
	defer s.readers.Put(br)

	var magic [len(wire.BinaryMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return &badRequestError{"read binary magic: " + err.Error()}
	}
	if string(magic[:]) != wire.BinaryMagic {
		return &badRequestError{fmt.Sprintf("bad binary magic %q", magic[:])}
	}

	framep, _ := s.frames.Get().(*[]byte)
	if framep == nil {
		framep = new([]byte)
	}
	defer s.frames.Put(framep)

	for {
		n, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return &badRequestError{"read frame length: " + err.Error()}
		}
		if n == 0 || n > wire.MaxFrameBytes {
			return &badRequestError{fmt.Sprintf("frame of %d bytes out of range", n)}
		}
		if uint64(cap(*framep)) < n {
			*framep = make([]byte, n)
		}
		frame := (*framep)[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return &badRequestError{"read frame: " + err.Error()}
		}
		if err := fn(frame); err != nil {
			return err
		}
	}
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := s.eng.Flush(); err != nil {
		writeEngineError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, wire.FlushResponse{Flushed: true})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if err := s.eng.CloseTenant(tenant); err != nil {
		writeEngineError(w, err, 0)
		return
	}
	// CloseTenant is a per-tenant barrier, so these reads see finals.
	// A failed session still closes successfully: Cost and Events
	// return the state at failure alongside the session error, and the
	// close response reports those finals (the failure itself stays
	// visible on the session's ordinary reads).
	cost, err := s.eng.Cost(tenant)
	if err != nil && errors.Is(err, engine.ErrUnknownTenant) {
		writeEngineError(w, err, 0)
		return
	}
	events, err := s.eng.Events(tenant)
	if err != nil && errors.Is(err, engine.ErrUnknownTenant) {
		writeEngineError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, wire.CloseResponse{
		Tenant: tenant, Events: events, Cost: wire.FromStreamCost(cost),
	})
}

func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) {
	cost, err := s.eng.Cost(r.PathValue("tenant"))
	if err != nil {
		writeEngineError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, wire.FromStreamCost(cost))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n, err := s.eng.Events(r.PathValue("tenant"))
	if err != nil {
		writeEngineError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, wire.EventsResponse{Processed: n})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sol, err := s.eng.Snapshot(r.PathValue("tenant"))
	if err != nil {
		writeEngineError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, wire.FromStreamSolution(sol))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	run, err := s.eng.Result(r.PathValue("tenant"))
	if err != nil {
		writeEngineError(w, err, 0)
		return
	}
	writeJSON(w, http.StatusOK, wire.FromStreamRun(run))
}

// handleMetrics serves the engine counters: JSON by default, the
// Prometheus text exposition (engine + WAL + HTTP families) when the
// request asks for text/plain or ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		s.serveMetricsText(w)
		return
	}
	writeJSON(w, http.StatusOK, wire.FromEngineMetrics(s.eng.Metrics()))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wire.HealthResponse{Status: "ok"})
}
