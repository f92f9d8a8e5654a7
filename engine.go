package leasing

// The sharded multi-tenant serving layer. Where Replay drives one Leaser
// over one demand stream on one goroutine, the Engine multiplexes many
// independent tenant sessions: each tenant is hashed to a shard, each
// shard drains a batched, backpressured event queue on its own goroutine,
// Cost/Events/Result serve from O(1) state each shard publishes per batch,
// and Snapshot is computed on the tenant's shard goroutine behind its
// queued work. Per tenant the engine is exactly Replay — its recorded output
// is byte-identical to a single-threaded Replay of that tenant's events
// for any shard count and batch size (internal/engine's parity tests
// enforce this). cmd/leaseload measures the layer's sustained throughput;
// docs/ARCHITECTURE.md describes how it slots between the stream protocol
// and the tools.

import (
	"leasing/internal/engine"
)

// Engine multiplexes many tenant Leaser sessions across shards. Create
// one with NewEngine and release it with Close; see EngineConfig for the
// knobs. Events of a single tenant must be submitted from one goroutine
// (per-tenant determinism is defined by submission order); everything
// else is safe for concurrent use.
type Engine = engine.Engine

// EngineConfig sizes an Engine: shard count, per-shard queue depth
// (backpressure), max events drained per processing wake, and whether
// per-session runs are recorded for Result. The zero value selects
// sensible defaults.
type EngineConfig = engine.Config

// EngineMetrics aggregates the per-shard counters of an Engine.
type EngineMetrics = engine.Metrics

// EngineShardMetrics is one shard's counter sample.
type EngineShardMetrics = engine.ShardMetrics

// Engine sentinel errors; returned errors wrap these.
var (
	// ErrEngineClosed is returned by engine operations after Close.
	ErrEngineClosed = engine.ErrClosed
	// ErrUnknownTenant is returned by engine reads for tenants that were
	// never opened.
	ErrUnknownTenant = engine.ErrUnknownTenant
	// ErrDuplicateTenant is returned by Open for an already-open tenant.
	ErrDuplicateTenant = engine.ErrDuplicateTenant
	// ErrNotRecording is returned by Result when the engine was built
	// without RecordRuns.
	ErrNotRecording = engine.ErrNotRecording
	// ErrBackpressure is returned by TrySubmitBatch when the owning
	// shard's queue is full (SubmitBatch would have blocked).
	ErrBackpressure = engine.ErrBackpressure
	// ErrTenantClosed is returned by CloseTenant for an already-closed
	// tenant.
	ErrTenantClosed = engine.ErrTenantClosed
)

// NewEngine starts a sharded multi-tenant engine with cfg's shard
// goroutines running; Close it to release them.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }
