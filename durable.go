package leasing

// The durability layer of the serving stack. OpenDurableLog opens the
// segmented write-ahead log (internal/wal) a durable Engine appends to,
// and RecoverEngine rebuilds every logged tenant session into a fresh
// engine — the crash-recovery path cmd/leased runs on boot when started
// with -data-dir. Because a session is a pure function of its open spec
// and its time-ordered events, recovery never deserializes algorithm
// state: it rebuilds the algorithm from the logged wire spec (the same
// deterministic spec-to-algorithm mapping the open endpoint uses) and
// replays the logged history, so a recovered session's Result is
// byte-identical to a single-threaded Replay of that history.
// docs/DURABILITY.md (generated from internal/wal) documents the record
// format, torn-write handling, compaction and the recovery runbook.

import (
	"encoding/json"
	"fmt"

	"leasing/internal/engine"
	"leasing/internal/wal"
)

// DurableLog is the segmented, CRC-framed, fsync-batched write-ahead
// log; open one with OpenDurableLog and hand it to an Engine via
// EngineConfig.WAL (or let RecoverEngine do both).
type DurableLog = wal.Log

// DurableLogOptions shapes a DurableLog: fsync-per-acknowledgement
// (group-committed), the segment rotation threshold, and the automatic
// compaction cadence.
type DurableLogOptions = wal.Options

// DurableLogStats samples a DurableLog's counters.
type DurableLogStats = wal.Stats

// EngineWAL is the hook a durable Engine logs through; *DurableLog
// implements it.
type EngineWAL = engine.WAL

// RestoredSession is one recovered tenant session as the engine replays
// it: the leaser rebuilt from the logged spec, the logged history, and
// the sealed flag.
type RestoredSession = engine.Restored

// ErrEngineWAL wraps WAL append failures surfaced by a durable engine's
// writes; the failed operation was not applied.
var ErrEngineWAL = engine.ErrWAL

// ErrOpenSpecRequired is returned by Open on a durable engine: durable
// sessions must be opened through OpenSpec so recovery can rebuild them.
var ErrOpenSpecRequired = engine.ErrSpecRequired

// OpenDurableLog opens (or creates) the write-ahead log rooted at dir,
// truncating a torn tail and scanning the logged sessions for
// RecoverEngine.
func OpenDurableLog(dir string, opts DurableLogOptions) (*DurableLog, error) {
	return wal.Open(dir, opts)
}

// RecoverEngine starts a durable engine over log: it rebuilds every
// session the log recovered — unmarshalling each logged spec as a
// RemoteOpenRequest and building its algorithm deterministically —
// replays the logged histories, and returns the engine (with the log
// installed as its WAL) ready to serve new traffic. The int is the
// number of sessions recovered. On error the engine is closed; the log
// is the caller's to close either way.
func RecoverEngine(log *DurableLog, cfg EngineConfig) (*Engine, int, error) {
	cfg.WAL = log
	return recoverSessions(log, cfg)
}

// recoverSessions rebuilds log's recovered sessions into a fresh
// engine built from cfg as-is — cfg.WAL is the caller's choice, which
// is how RecoverEngineWAL routes a clustered node's appends through
// its replicated log while recovering from the plain one beneath it.
func recoverSessions(log *DurableLog, cfg EngineConfig) (*Engine, int, error) {
	eng := NewEngine(cfg)
	sessions := log.Recover()
	restored := make([]RestoredSession, len(sessions))
	for i, s := range sessions {
		var spec RemoteOpenRequest
		if err := json.Unmarshal(s.Spec, &spec); err != nil {
			eng.Close()
			return nil, 0, fmt.Errorf("leasing: recover %q: decode spec: %w", s.Tenant, err)
		}
		lsr, err := spec.Build()
		if err != nil {
			eng.Close()
			return nil, 0, fmt.Errorf("leasing: recover %q: build session: %w", s.Tenant, err)
		}
		restored[i] = RestoredSession{Tenant: s.Tenant, Leaser: lsr, Events: s.Events, Closed: s.Closed}
	}
	if err := eng.Restore(restored); err != nil {
		eng.Close()
		return nil, 0, err
	}
	return eng, len(restored), nil
}

// WireOpenSpec renders a RemoteOpenRequest as the canonical spec bytes
// OpenSpec logs — the same encoding the lease service logs for sessions
// opened over HTTP, so in-process and remote sessions recover
// identically. Like the service, it logs the spec without its demand
// stream (RemoteOpenRequest.WithoutStream), which a session never reads.
func WireOpenSpec(req RemoteOpenRequest) ([]byte, error) {
	req = req.WithoutStream()
	spec, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("leasing: encode open spec: %w", err)
	}
	return spec, nil
}

// Compile-time proof that the wal log satisfies the engine's WAL hook.
var _ engine.WAL = (*wal.Log)(nil)
