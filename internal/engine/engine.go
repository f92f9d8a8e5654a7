// Package engine is the sharded, multi-tenant serving layer over the
// stream protocol: it multiplexes many independent stream.Leaser sessions
// — one per tenant — across a fixed set of shards, each shard owning its
// sessions and draining a batched event queue on its own goroutine.
//
// The design is single-writer throughout. A tenant is hashed (FNV-1a) to
// exactly one shard, so a tenant's events are processed in submission
// order by one goroutine and no lock ever guards a live Leaser: within a
// shard the only synchronization is the ingestion channel itself (whose
// bounded capacity is the backpressure) and atomically published read
// state.
// Readers never touch a live Leaser. Cost, Events and Result serve from
// O(1) per-session state the shard publishes after each processed batch;
// Snapshot travels through the tenant's shard queue and is computed on
// the shard goroutine when it arrives. The session registry is a
// copy-on-write map republished on Open.
//
// Because each session is driven by the same stream.Recorder that powers
// the single-threaded Replay driver, a tenant's recorded run is
// byte-identical to Replay of that tenant's events for any shard count
// and any batch size — the determinism anchor the parity tests enforce.
//
// With Config.WAL set the engine is durable: every acknowledged
// operation is in the write-ahead log before its caller learns it
// succeeded — event batches and closes are appended before the owning
// shard even sees them, and opens are appended once the shard installs
// the session (so racing duplicate opens log only the winning spec) —
// and Restore replays a recovered history back into a fresh engine
// without re-logging it. The log implementation lives in internal/wal;
// the engine only speaks the WAL interface.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"leasing/internal/stream"
)

// Sentinel errors of the engine API; returned errors wrap these together
// with the offending tenant where applicable.
var (
	// ErrClosed is returned by every operation after Close (and by
	// writes after Drain has begun).
	ErrClosed = errors.New("engine: closed")
	// ErrUnknownTenant is returned by reads and reported in metrics for
	// events addressed to a tenant that was never opened.
	ErrUnknownTenant = errors.New("engine: unknown tenant")
	// ErrDuplicateTenant is returned by Open for an already-open tenant.
	ErrDuplicateTenant = errors.New("engine: tenant already open")
	// ErrNotRecording is returned by Result when the engine was built
	// without RecordRuns.
	ErrNotRecording = errors.New("engine: RecordRuns disabled")
	// ErrBackpressure is returned by TrySubmitBatch when the owning
	// shard's queue is full, instead of blocking like SubmitBatch does.
	// The serving layer maps it to HTTP 429.
	ErrBackpressure = errors.New("engine: shard queue full")
	// ErrTenantClosed is returned by CloseTenant for an already-closed
	// tenant; events submitted after CloseTenant are dropped and counted.
	ErrTenantClosed = errors.New("engine: tenant closed")
	// ErrWAL wraps write-ahead-log append failures. The operation was
	// not applied (nothing reaches a shard unlogged), so the session is
	// exactly as durable as the last successful append.
	ErrWAL = errors.New("engine: wal append failed")
	// ErrSpecRequired is returned by Open on a durable engine: without a
	// spec the session could never be rebuilt on recovery, so durable
	// sessions must be opened through OpenSpec.
	ErrSpecRequired = errors.New("engine: durable engine requires an open spec")
)

// WAL is the durability hook: when Config.WAL is set, the engine appends
// every acknowledged open, event batch and close through it before the
// owning shard applies the operation. internal/wal implements it; the
// engine deliberately depends only on this interface so the log can
// reuse the wire encodings without an import cycle.
type WAL interface {
	// LogOpen appends a session open: the tenant and the spec that
	// deterministically rebuilds its algorithm on recovery.
	LogOpen(tenant string, spec []byte) error
	// LogEvents appends one acknowledged event batch in submission
	// order. It must be durable when it returns nil.
	LogEvents(tenant string, evs []stream.Event) error
	// LogClose appends a session seal.
	LogClose(tenant string) error
}

// Config sizes the engine. The zero value is usable: every field falls
// back to the default documented on it.
type Config struct {
	// Shards is the number of shard goroutines sessions are hashed
	// across. Default 8.
	Shards int
	// QueueDepth is the per-shard ingestion queue capacity in submitted
	// operations; a full queue blocks Submit (backpressure). Default 256.
	QueueDepth int
	// BatchSize caps how many events a shard drains per processing wake;
	// the O(1) read state behind Cost, Events and Result is republished
	// once per batch, so BatchSize trades their freshness for ingestion
	// throughput. Snapshot is computed per read, behind queued work.
	// Default 64.
	BatchSize int
	// RecordRuns keeps each session's full decision list and cost curve
	// so Result can return the per-tenant *stream.Run (what the parity
	// tests compare against Replay). Off by default: long-lived sessions
	// then run in constant memory.
	RecordRuns bool
	// WAL, when non-nil, makes the engine durable: every acknowledged
	// write is appended through it before its shard applies it. Sessions
	// must then be opened with OpenSpec so recovery can rebuild them.
	WAL WAL
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 8
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 256
	}
	if c.BatchSize < 1 {
		c.BatchSize = 64
	}
	return c
}

// Engine multiplexes independent tenant sessions across shards. All
// methods are safe for concurrent use — an Open/Submit/Flush racing
// Close either completes before the drain or returns ErrClosed — with
// one ordering caveat: events of a single tenant must be submitted from
// one goroutine (or otherwise externally ordered), since per-tenant
// determinism is defined by submission order.
type Engine struct {
	cfg    Config
	shards []*shard
	// mu makes the closed-check-and-enqueue atomic against Close, so no
	// operation can slip into a queue behind the stop marker (which
	// would hang its caller forever). Writers hold it shared; Close
	// holds it exclusively while flipping closed and enqueueing stops.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
	readMu sync.Mutex // serializes post-Close Snapshot reads of leasers
}

// New starts an engine with cfg's shard goroutines running. Callers must
// Close it to release them.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range e.shards {
		e.shards[i] = newShard(i, cfg)
		e.wg.Add(1)
		go e.shards[i].run(&e.wg)
	}
	return e
}

// shardIndex hashes a tenant ID with FNV-1a; the hash fixes which shard
// owns the tenant for the engine's lifetime.
func shardIndex(tenant string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(tenant); i++ {
		h ^= uint32(tenant[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

func (e *Engine) shardFor(tenant string) *shard {
	return e.shards[shardIndex(tenant, len(e.shards))]
}

// send enqueues one op unless the engine is closed; the shared lock
// guarantees the op lands ahead of any stop marker.
func (e *Engine) send(sh *shard, o op) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	sh.queue <- o
	return nil
}

// Open registers a new tenant session served by l. It returns once the
// owning shard has installed the session, so events submitted afterwards
// (from the same goroutine) are guaranteed to find it. On a durable
// engine Open fails with ErrSpecRequired — use OpenSpec, so recovery
// can rebuild the session.
func (e *Engine) Open(tenant string, l stream.Leaser) error {
	return e.OpenSpec(tenant, l, nil)
}

// OpenSpec is Open carrying the spec that deterministically rebuilds the
// session's algorithm. On a durable engine the owning shard appends the
// spec to the WAL as it installs the session — after the duplicate
// check, so racing duplicate opens log only the winning spec, and
// before the registry publish, so no submit can observe (and log events
// for) a session ahead of its own open record. A failed append leaves
// the session uninstalled. Recovery replays the spec through the same
// spec-to-algorithm mapping the caller used to build l. Without a WAL
// the spec is ignored.
func (e *Engine) OpenSpec(tenant string, l stream.Leaser, spec []byte) error {
	if l == nil {
		return fmt.Errorf("engine: open %q: nil leaser", tenant)
	}
	if e.cfg.WAL == nil {
		return e.open(tenant, l, nil)
	}
	if len(spec) == 0 {
		return fmt.Errorf("%w: %q", ErrSpecRequired, tenant)
	}
	return e.open(tenant, l, spec)
}

// open installs the session; the shard logs spec during the install
// when non-nil (Restore passes nil — its open is already logged).
func (e *Engine) open(tenant string, l stream.Leaser, spec []byte) error {
	done := make(chan error, 1)
	if err := e.send(e.shardFor(tenant), op{kind: opOpen, tenant: tenant, leaser: l, spec: spec, done: done}); err != nil {
		return err
	}
	return <-done
}

// isClosed samples the closed flag; the authoritative check is send's.
func (e *Engine) isClosed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closed
}

// Submit enqueues one event for the tenant, blocking while the owning
// shard's queue is full. Delivery is asynchronous: an event for an
// unknown (or failed) tenant is counted as dropped in Metrics rather
// than reported here.
func (e *Engine) Submit(tenant string, ev stream.Event) error {
	return e.SubmitBatch(tenant, []stream.Event{ev})
}

// SubmitBatch enqueues a batch of events for the tenant as one queue
// operation (the cheap path for bulk ingestion). The engine takes
// ownership of evs; callers must not mutate it afterwards. On a durable
// engine the batch is appended to the WAL before it is enqueued, so a
// nil return means the events are both logged and queued. (In the
// narrow crash window where the batch was logged but the submit still
// failed with ErrClosed, recovery replays it anyway — the authoritative
// resume point after a restart is the tenant's processed-event count,
// not the submitter's last acknowledged offset.)
func (e *Engine) SubmitBatch(tenant string, evs []stream.Event) error {
	if len(evs) == 0 {
		return nil
	}
	sh := e.shardFor(tenant)
	if e.cfg.WAL != nil && loggable(sh, tenant) {
		if e.isClosed() {
			return ErrClosed
		}
		if err := e.cfg.WAL.LogEvents(tenant, evs); err != nil {
			return fmt.Errorf("%w: %q: %v", ErrWAL, tenant, err)
		}
	}
	return e.send(sh, op{kind: opEvents, tenant: tenant, events: evs})
}

// loggable reports whether a batch for the tenant belongs in the WAL: a
// batch the shard will only drop (never-opened, sealed or failed
// session) is not logged — recovery would drop it identically, and
// logging it would let a misaddressed or misbehaving producer grow the
// log without bound. The check is best-effort against the published
// state, and under the documented ordering contract — a tenant's
// submits come from one goroutine, and CloseTenant is ordered with them
// — it is exact: the registry publishes before Open returns and seals
// publish before CloseTenant returns. A CloseTenant racing an in-flight
// submit from another goroutine is outside that contract: the raced
// batch may be logged ahead of the close record and dropped live but
// replayed on recovery (or vice versa) — per-tenant determinism is
// defined by submission order, which a race leaves undefined.
func loggable(sh *shard, tenant string) bool {
	s := sh.lookup(tenant)
	if s == nil {
		return false
	}
	st := s.state.Load()
	return !st.closed && st.err == nil
}

// TrySubmitBatch is the non-blocking SubmitBatch: if the owning shard's
// queue has room the batch is enqueued exactly as SubmitBatch would, and
// otherwise ErrBackpressure is returned immediately with no events
// accepted. It is the ingestion hook for servers that must convert
// backpressure into a retryable signal (HTTP 429) instead of stalling a
// request-handling goroutine. Like SubmitBatch, the engine takes
// ownership of evs on success.
func (e *Engine) TrySubmitBatch(tenant string, evs []stream.Event) error {
	return e.TrySubmitBatchRelease(tenant, evs, nil)
}

// TrySubmitBatchRelease is TrySubmitBatch with a buffer-recycling hook:
// on a nil return, release (when non-nil) is called exactly once, after
// the owning shard has consumed evs — applied, dropped, or drained
// during Close — so callers that decode into pooled batches know when
// the batch (and every payload it points into) may be reused. On a
// non-nil return nothing was enqueued, release is not called, and
// ownership of evs stays with the caller. release runs on the shard
// goroutine and must not block.
func (e *Engine) TrySubmitBatchRelease(tenant string, evs []stream.Event, release func()) error {
	if len(evs) == 0 {
		return nil
	}
	sh := e.shardFor(tenant)
	if e.cfg.WAL == nil || !loggable(sh, tenant) {
		// No WAL, or a batch the shard will only drop and count —
		// nothing to make durable (see loggable).
		e.mu.RLock()
		defer e.mu.RUnlock()
		if e.closed {
			return ErrClosed
		}
		select {
		case sh.queue <- op{kind: opEvents, tenant: tenant, events: evs, release: release}:
			return nil
		default:
			return fmt.Errorf("%w: %q", ErrBackpressure, tenant)
		}
	}
	// Durable path: the admission decision comes first, so a batch that
	// 429s is never in the log — logging first and discovering a full
	// queue after would make the client's resubmission a duplicate that
	// recovery replays twice. Admission reserves a queue slot (under the
	// brief ingest lock only), then the WAL append runs outside every
	// lock so concurrent tenants share group-committed fsyncs, then the
	// reserved enqueue completes. The send can still wait briefly if a
	// control op takes the measured slot, but it can never deadlock (the
	// shard goroutine always drains) and never turns into a 429.
	if e.isClosed() {
		return ErrClosed
	}
	sh.ingest.Lock()
	if int(sh.reserved.Load())+len(sh.queue) >= cap(sh.queue) {
		sh.ingest.Unlock()
		return fmt.Errorf("%w: %q", ErrBackpressure, tenant)
	}
	sh.reserved.Add(1)
	sh.ingest.Unlock()
	defer sh.reserved.Add(-1)
	if err := e.cfg.WAL.LogEvents(tenant, evs); err != nil {
		return fmt.Errorf("%w: %q: %v", ErrWAL, tenant, err)
	}
	// In the narrow window where Close began after the append, the batch
	// is logged but not applied; recovery replays it, and resuming
	// clients follow the processed-event count (see SubmitBatch).
	return e.send(sh, op{kind: opEvents, tenant: tenant, events: evs, release: release})
}

// CloseTenant seals one tenant's session: it returns once every event
// submitted for the tenant before the call has been processed and the
// final session state published, after which further events for the
// tenant are dropped (and counted in Metrics) while Cost, Snapshot,
// Events and Result keep serving the final state. Closing an unknown
// tenant returns ErrUnknownTenant; closing twice returns ErrTenantClosed.
func (e *Engine) CloseTenant(tenant string) error {
	done := make(chan error, 1)
	if err := e.send(e.shardFor(tenant), op{kind: opClose, tenant: tenant, done: done}); err != nil {
		return err
	}
	return <-done
}

// Restored is one recovered tenant session: the leaser rebuilt from its
// logged spec, its full logged event history in order, and whether it
// was sealed.
type Restored struct {
	Tenant string
	Leaser stream.Leaser
	Events []stream.Event
	Closed bool
}

// Restore replays recovered sessions into the engine, bypassing the WAL
// (the history is already logged): each session is opened, its events
// are enqueued in order, sealed sessions are re-sealed, and Restore
// returns after a full flush — so every recovered session's published
// state is current when it returns. Because the replay runs through the
// same per-session Recorder as live traffic, a restored session is
// byte-identical to one that processed the history live, including
// sessions whose algorithm failed mid-history. Call it once, before
// serving new traffic.
func (e *Engine) Restore(sessions []Restored) error {
	for _, s := range sessions {
		if err := e.open(s.Tenant, s.Leaser, nil); err != nil {
			return fmt.Errorf("engine: restore %q: %w", s.Tenant, err)
		}
		if len(s.Events) > 0 {
			//lint:allow-walorder recovery replays events already durable in the WAL; re-logging them would duplicate records
			if err := e.send(e.shardFor(s.Tenant), op{kind: opEvents, tenant: s.Tenant, events: s.Events}); err != nil {
				return fmt.Errorf("engine: restore %q: %w", s.Tenant, err)
			}
		}
		if s.Closed {
			done := make(chan error, 1)
			if err := e.send(e.shardFor(s.Tenant), op{kind: opClose, tenant: s.Tenant, nolog: true, done: done}); err != nil {
				return fmt.Errorf("engine: restore %q: %w", s.Tenant, err)
			}
			if err := <-done; err != nil {
				return fmt.Errorf("engine: restore %q: %w", s.Tenant, err)
			}
		}
	}
	return e.Flush()
}

// Flush blocks until every event submitted before the call has been
// processed and its session state published. It is the read barrier:
// after Flush, Cost/Events/Result reflect all prior submissions.
func (e *Engine) Flush() error {
	done := make(chan error, len(e.shards))
	sent := 0
	for _, sh := range e.shards {
		if err := e.send(sh, op{kind: opFlush, done: done}); err != nil {
			return err
		}
		sent++
	}
	for ; sent > 0; sent-- {
		if err := <-done; err != nil {
			return err
		}
	}
	return nil
}

// Close drains gracefully: it stops accepting new work, processes
// everything already queued, publishes final session state, and stops
// the shard goroutines. Close is idempotent and safe to race with
// writers — an operation either lands before the drain (and is fully
// processed) or returns ErrClosed. Reads remain valid afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		for _, sh := range e.shards {
			sh.queue <- op{kind: opStop}
		}
	}
	e.mu.Unlock()
	// Every Close waits for the drain, so the post-Close read guarantee
	// holds for concurrent callers too, not just the first one.
	e.wg.Wait()
	return nil
}

// Has reports whether the tenant has a session on this engine — open,
// failed or sealed. It reads the shard's published registry, so a
// session is visible once its open has been applied (OpenSpec returns
// only then).
func (e *Engine) Has(tenant string) bool {
	return e.shardFor(tenant).lookup(tenant) != nil
}

// session looks a tenant up in its shard's published registry.
func (e *Engine) session(tenant string) (*session, error) {
	s := e.shardFor(tenant).lookup(tenant)
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	return s, nil
}

// Cost returns the tenant's cached cumulative cost breakdown, current as
// of the last batch its shard processed (Flush to synchronize). If the
// session failed, the breakdown at failure is returned with the error.
func (e *Engine) Cost(tenant string) (stream.CostBreakdown, error) {
	s, err := e.session(tenant)
	if err != nil {
		return stream.CostBreakdown{}, err
	}
	st := s.state.Load()
	return st.cost, st.err
}

// Events returns how many of the tenant's events have been processed.
func (e *Engine) Events(tenant string) (int64, error) {
	s, err := e.session(tenant)
	if err != nil {
		return 0, err
	}
	st := s.state.Load()
	return st.events, st.err
}

// Snapshot computes the tenant's solution snapshot on demand. The read
// travels through the tenant's shard queue like Flush, so it waits
// behind the work queued before it and covers every event submitted for
// the tenant before the call; it costs O(p log p) for p purchases. After
// Close the drained leaser is read directly. If the session failed, the
// snapshot at failure is returned with the error.
func (e *Engine) Snapshot(tenant string) (stream.Solution, error) {
	s, err := e.session(tenant)
	if err != nil {
		return stream.Solution{}, err
	}
	var sol stream.Solution
	done := make(chan error, 1)
	if e.send(e.shardFor(tenant), op{kind: opSnapshot, tenant: tenant, sol: &sol, done: done}) == nil {
		err = <-done
		return sol, err
	}
	// Closed: once the shards have exited nothing else drives the leaser.
	e.wg.Wait()
	e.readMu.Lock()
	defer e.readMu.Unlock()
	return s.leaser.Snapshot(), s.err
}

// Result returns the tenant's recorded run — decisions, cost curve and
// final breakdown — as Replay would have produced it. It requires
// Config.RecordRuns and, like Cost and Events, is current as of the
// last processed batch.
func (e *Engine) Result(tenant string) (*stream.Run, error) {
	if !e.cfg.RecordRuns {
		return nil, ErrNotRecording
	}
	s, err := e.session(tenant)
	if err != nil {
		return nil, err
	}
	st := s.state.Load()
	if st.err != nil {
		return nil, st.err
	}
	return &stream.Run{Decisions: st.decisions, Curve: st.curve, Final: st.cost}, nil
}

// Metrics samples per-shard counters and aggregates them. Queue depths
// are instantaneous; the event and drop counters are cumulative. Costs
// sum the sessions' published cost totals in tenant-name order — per
// shard, and engine-wide across every shard — so for the same
// per-tenant streams they come out bit-identical whatever the
// inter-tenant interleaving or shard count. Like Cost, they are current
// as of each session's last processed batch.
func (e *Engine) Metrics() Metrics {
	m := Metrics{Shards: make([]ShardMetrics, len(e.shards))}
	var all []*session
	for i, sh := range e.shards {
		sm, ss := sh.metrics()
		m.Shards[i] = sm
		m.Sessions += sm.Sessions
		m.Events += sm.Events
		m.Batches += sm.Batches
		m.Dropped += sm.Dropped
		m.QueueDepth += sm.QueueDepth
		all = append(all, ss...)
	}
	slices.SortFunc(all, byTenant)
	m.Cost = costTotal(all)
	return m
}
