package wal

// The shippable record stream: cluster replication re-uses the log's
// own record encoding as its wire unit. A primary encodes each
// acknowledged record once, appends it locally, and ships the same
// (kind, payload) pair to its replica, which applies it verbatim with
// AppendRecord — so a follower log is byte-compatible with a log the
// tenant wrote locally, and recovery from it is the same code path as
// crash recovery. Rescan turns an open follower log into sessions at
// failover time without reopening it.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"leasing/internal/stream"
	"leasing/internal/wire"
)

// ErrBadRecord marks a record whose encoding fails validation — a
// malformed shipped payload, as opposed to a local storage failure.
var ErrBadRecord = errors.New("wal: bad record")

// EncodeOpenRecord encodes a KindOpen payload: the tenant and the spec
// that deterministically rebuilds its algorithm. LogOpen and Compact
// append exactly these bytes.
func EncodeOpenRecord(tenant string, spec []byte) ([]byte, error) {
	payload, err := json.Marshal(OpenRecord{Tenant: tenant, Spec: json.RawMessage(spec)})
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return payload, nil
}

// EncodeCloseRecord encodes a KindClose payload — what LogClose
// appends.
func EncodeCloseRecord(tenant string) ([]byte, error) {
	payload, err := json.Marshal(CloseRecord{Tenant: tenant})
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return payload, nil
}

// AppendEventsRecord appends a KindEventsBinary payload (uvarint tenant
// length, tenant bytes, then the binary event framing) to dst — the
// bytes LogEvents and Compact append, exposed so a replication layer
// can encode once and both append and ship the same record.
func AppendEventsRecord(dst []byte, tenant string, evs []stream.Event) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(tenant)))
	dst = append(dst, tenant...)
	dst, err := wire.AppendEventsBinary(dst, evs)
	if err != nil {
		return dst, fmt.Errorf("wal: %w", err)
	}
	return dst, nil
}

// RecordTenant extracts the tenant a record belongs to. KindOpen and
// KindClose payloads are JSON; KindEventsBinary carries the tenant as
// its uvarint-framed prefix.
func RecordTenant(kind byte, payload []byte) (string, error) {
	switch kind {
	case KindOpen:
		var rec OpenRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return "", fmt.Errorf("%w: open record: %v", ErrBadRecord, err)
		}
		return rec.Tenant, nil
	case KindEventsBinary:
		tenant, _, err := splitTenantPayload(payload)
		if err != nil {
			return "", fmt.Errorf("%w: binary events record: %v", ErrBadRecord, err)
		}
		return tenant, nil
	case KindClose:
		var rec CloseRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return "", fmt.Errorf("%w: close record: %v", ErrBadRecord, err)
		}
		return rec.Tenant, nil
	default:
		return "", fmt.Errorf("%w: unknown record kind %d", ErrBadRecord, kind)
	}
}

// AppendRecord applies one already-encoded record — the follower half
// of log shipping. The record's tenant is parsed (which validates the
// payload's framing) before the append, so a corrupt shipped record is
// rejected instead of poisoning the follower log; full event decoding
// is deferred to recovery or Rescan, exactly as for locally written
// records. Per-tenant ordering is the caller's: ship records in the
// order the primary acknowledged them.
func (l *Log) AppendRecord(kind byte, payload []byte) error {
	if _, err := RecordTenant(kind, payload); err != nil {
		return err
	}
	return l.appendRaw(kind, payload)
}

// Rescan re-reads the live segments of an open log and returns the
// sessions they describe — what Recover would return if the log were
// closed and reopened now. Appends are blocked for the duration. A
// follower calls this at failover to turn its shipped history into
// sessions without giving up the log.
func (l *Log) Rescan() ([]Session, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrLogClosed
	}
	// Every record in the live segments was written whole by this
	// process, so the scan is strict — a torn record here is a real
	// error, not a crash tail.
	st := newScanState()
	for idx := l.first; idx <= l.index; idx++ {
		if _, err := scanSegment(segPath(l.dir, idx), false, st); err != nil {
			return nil, err
		}
	}
	return st.sessions(), nil
}
