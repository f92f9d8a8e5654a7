package server

// The cluster face of the server: tenant placement redirects and the
// log-shipping replication endpoints. With Config.Cluster set, tenant
// requests that belong to another node are answered with a 307 to the
// owner (clients that route by the same ring never see one; clients
// with a stale member list follow it transparently), the replicate
// endpoint appends shipped WAL records to this node's follower log, and
// the activate endpoint recovers follower sessions into the serving
// engine — the failover path the kill-one-node drill exercises.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"leasing/internal/cluster"
	"leasing/internal/engine"
	"leasing/internal/wal"
	"leasing/internal/wire"
)

// ClusterConfig enables cluster mode: placement-aware redirects plus
// the replication ingest and failover activation endpoints.
type ClusterConfig struct {
	// Self is this node's base URL as it appears in Peers.
	Self string
	// Peers is the full member list (including Self), one base URL per
	// node. Every node and cluster client builds the same ring from it.
	Peers []string
	// Follower is the log shipped records are appended to and failover
	// activation recovers from. Required.
	Follower *wal.Log
	// WAL, when non-nil, is this node's own write-ahead log (as wired
	// into its engine): activation copies an adopted tenant's shipped
	// history into it before the session starts serving, so the tenant
	// survives a later crash of this node — and, when the WAL is itself
	// replicated, ships onward to the tenant's next replica.
	WAL engine.WAL
	// ShipperStats, when non-nil, samples this node's outbound shipper
	// for the metrics endpoint (the leased_shipper_* families).
	ShipperStats func() cluster.ShipperStats
}

// clusterState is the server's compiled cluster mode.
type clusterState struct {
	cfg  ClusterConfig
	ring *cluster.Ring

	// activateMu serializes failover activations; idempotence comes from
	// re-checking engine.Has under it.
	activateMu sync.Mutex
}

// newClusterState validates and compiles a ClusterConfig.
func newClusterState(cfg *ClusterConfig) (*clusterState, error) {
	if cfg == nil {
		return nil, nil
	}
	if cfg.Follower == nil {
		return nil, fmt.Errorf("server: cluster mode requires a follower log")
	}
	ring, err := cluster.New(cfg.Peers, 0)
	if err != nil {
		return nil, err
	}
	if !ring.Has(cfg.Self) {
		return nil, fmt.Errorf("server: self %q is not in the peer list", cfg.Self)
	}
	return &clusterState{cfg: *cfg, ring: ring}, nil
}

// redirected wraps a tenant-scoped handler: a tenant placed on another
// node — and not already active locally, as it is after a failover
// activation — is answered with a 307 to the same path on its owner.
func (s *Server) redirected(h http.HandlerFunc) http.HandlerFunc {
	if s.cluster == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.PathValue("tenant")
		owner := s.cluster.ring.Owner(tenant)
		if owner == s.cluster.cfg.Self || s.eng.Has(tenant) {
			h(w, r)
			return
		}
		// 307 keeps the method and body; Go clients re-send both
		// automatically for buffered bodies.
		http.Redirect(w, r, redirectTarget(owner, r.URL.Path, r.URL.RawQuery),
			http.StatusTemporaryRedirect)
	}
}

// handleReplicate applies shipped WAL records to the follower log. The
// body is the binary framing: magic, then one frame per record whose
// payload is a record-kind byte followed by the record's encoded
// payload — the exact bytes the primary appended locally.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, wire.CodeNotClustered, "replication requires -peers", 0)
		return
	}
	applied := 0
	err := s.readFrames(r.Body, func(frame []byte) error {
		if len(frame) < 2 {
			return &badRequestError{"frame too short for a record"}
		}
		if err := s.cluster.cfg.Follower.AppendRecord(frame[0], frame[1:]); err != nil {
			if errors.Is(err, wal.ErrBadRecord) {
				return &badRequestError{err.Error()}
			}
			return err
		}
		applied++
		return nil
	})
	if err != nil {
		code := wire.CodeStorageFailed
		var badReq *badRequestError
		if errors.As(err, &badReq) {
			code = wire.CodeBadRequest
		}
		writeError(w, code, err.Error(), applied)
		return
	}
	writeJSON(w, http.StatusOK, wire.ReplicateResponse{Applied: applied})
}

// handleActivate recovers follower sessions into the serving engine:
// sessions whose ring owner is in the request's down list (all of them
// when the list is empty) and which are not already active locally are
// rebuilt from their shipped spec and history — the crash-recovery
// replay — after copying that history into this node's own WAL. The
// down scoping matters because a follower log also holds tenants whose
// primary is healthy: adopting those would fork them.
func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, wire.CodeNotClustered, "activation requires -peers", 0)
		return
	}
	var req wire.ActivateRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, wire.CodeBadRequest, "decode activate request: "+err.Error(), 0)
			return
		}
	}
	down := make(map[string]bool, len(req.Down))
	for _, node := range req.Down {
		down[node] = true
	}
	s.cluster.activateMu.Lock()
	defer s.cluster.activateMu.Unlock()

	sessions, err := s.cluster.cfg.Follower.Rescan()
	if err != nil {
		writeError(w, wire.CodeStorageFailed, "rescan follower log: "+err.Error(), 0)
		return
	}
	activated := 0
	for _, sess := range sessions {
		if len(down) > 0 && !s.cluster.claims(sess.Tenant, down) {
			continue
		}
		if s.eng.Has(sess.Tenant) {
			continue
		}
		restored, err := s.adopt(sess)
		if err != nil {
			writeError(w, wire.CodeBadRequest,
				fmt.Sprintf("activate %q: %v", sess.Tenant, err), activated)
			return
		}
		if err := s.eng.Restore([]engine.Restored{restored}); err != nil {
			writeEngineError(w, err, activated)
			return
		}
		activated++
	}
	writeJSON(w, http.StatusOK, wire.ActivateResponse{Activated: activated})
}

// claims decides whether this node adopts a tenant during a failover
// scoped by a down list: the tenant's ring owner must be down, and this
// node must be the tenant's first live successor — the node a
// ring-aware client routes the tenant to once the owner is marked
// down. Exactly one survivor claims each tenant, even though adoption
// re-ships the history onward and lands copies in further followers.
func (c *clusterState) claims(tenant string, down map[string]bool) bool {
	succ := c.ring.Successors(tenant, len(c.ring.Members()))
	for _, member := range succ {
		if down[member] {
			continue
		}
		return member == c.cfg.Self
	}
	return false
}

// adoptChunk bounds events per WAL record when an adopted history is
// copied into the local log, mirroring compaction's record sizing.
const adoptChunk = 2048

// adopt turns one follower session into a Restored engine session,
// first copying its history into this node's own WAL (when durable) so
// the adoption survives a local crash.
func (s *Server) adopt(sess wal.Session) (engine.Restored, error) {
	var req wire.OpenRequest
	if err := json.Unmarshal(sess.Spec, &req); err != nil {
		return engine.Restored{}, fmt.Errorf("decode open spec: %w", err)
	}
	lsr, err := s.cfg.Builder(&req)
	if err != nil {
		return engine.Restored{}, fmt.Errorf("build session: %w", err)
	}
	if w := s.cluster.cfg.WAL; w != nil {
		if err := w.LogOpen(sess.Tenant, sess.Spec); err != nil {
			return engine.Restored{}, err
		}
		for lo := 0; lo < len(sess.Events); lo += adoptChunk {
			hi := min(lo+adoptChunk, len(sess.Events))
			if err := w.LogEvents(sess.Tenant, sess.Events[lo:hi]); err != nil {
				return engine.Restored{}, err
			}
		}
		if sess.Closed {
			if err := w.LogClose(sess.Tenant); err != nil {
				return engine.Restored{}, err
			}
		}
	}
	return engine.Restored{
		Tenant: sess.Tenant, Leaser: lsr, Events: sess.Events, Closed: sess.Closed,
	}, nil
}

// OwnerURL reports where the cluster places a tenant — "" when the
// server is not clustered. Exposed for operational introspection and
// tests.
func (s *Server) OwnerURL(tenant string) string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.ring.Owner(tenant)
}

// redirectTarget builds the URL a tenant request is redirected to.
func redirectTarget(owner, path, query string) string {
	target := strings.TrimRight(owner, "/") + path
	if query != "" {
		target += "?" + query
	}
	return target
}
