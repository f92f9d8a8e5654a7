// Package wal is the durability layer of the lease serving stack: a
// segmented, CRC-framed, fsync-batched write-ahead log of everything a
// multi-tenant engine acknowledges — open specs, event batches and
// session closes — plus the recovery scan that rebuilds every tenant
// session from it after a crash.
//
// The log leans on the event-sourced shape of the stream protocol: a
// session's entire state is a pure function of its open spec and its
// time-ordered events, so durability never serializes algorithm state.
// Appends record exactly what was acknowledged (open specs in the JSON
// encoding of internal/wire, events in its binary framing — the same
// single source of truth the HTTP service speaks), and recovery replays
// the records in order through freshly built leasers — producing
// sessions byte-identical to a single-threaded Replay of the logged
// history.
//
// On disk a log is a directory of numbered segments. Each segment starts
// with a fixed header (magic, version, flags) and holds a sequence of
// length-prefixed, CRC-32C-framed records. The final segment is the only
// one allowed to end mid-record: a torn tail (partial header, partial
// payload, or CRC mismatch) is detected on Open and cleanly truncated at
// the last whole record, never silently replayed. Corruption anywhere
// before the tail is data loss of acknowledged records and is reported
// as an error instead.
//
// Compaction rewrites the whole log as one snapshot segment — per live
// tenant, its open record followed by its consolidated event history —
// and deletes the segments it supersedes. Closed sessions are dropped:
// CloseTenant is the retention boundary, so a closed tenant's history is
// reclaimed by the next compaction (and the tenant no longer survives
// recovery after that). The snapshot flag in the segment header makes
// the rewrite crash-safe: recovery starts at the newest snapshot segment
// and ignores (and deletes) anything older.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"leasing/internal/stream"
	"leasing/internal/wire"
)

// Segment format constants. A segment file is SegMagic, a little-endian
// uint32 version, a little-endian uint32 flags word, then records.
const (
	// SegMagic opens every segment file.
	SegMagic = "LEASEWAL"
	// SegVersion is the segment format version this build writes and
	// the only one it reads. Version 2 added the binary events record
	// (KindEventsBinary). Version 3 keeps version 2's framing and marks
	// logs whose facility sessions bid over the current l_max round
	// only: recovery rebuilds each session from its logged open spec,
	// and a version-2 build applied the same facility spec under the
	// full-history rule, so replaying its log here would disagree with
	// what it applied live. Versions 1 and 2 are refused like any other.
	SegVersion = 3
	// SegHeaderSize is the byte size of the segment header.
	SegHeaderSize = 16
	// FlagSnapshot marks a compaction snapshot segment: it supersedes
	// every lower-numbered segment, so recovery starts at the newest one.
	FlagSnapshot = 1 << 0
)

// Record framing constants. A record is a little-endian uint32 body
// length, a little-endian uint32 CRC-32C of the body, then the body (one
// kind byte followed by the kind's payload — JSON for kinds 1 and 3,
// the binary event framing of internal/wire for kind 4).
const (
	// RecHeaderSize is the byte size of the record frame header.
	RecHeaderSize = 8
	// MaxRecordBytes bounds a single record body; a larger length field
	// is treated as corruption.
	MaxRecordBytes = 1 << 30
)

// Record kinds, one per payload type. Kind 2 was the JSON-era events
// record; it only ever appeared in version-1 segments, which are
// refused, so it is an unknown kind like any other.
const (
	// KindOpen frames an OpenRecord.
	KindOpen byte = 1
	// KindClose frames a CloseRecord.
	KindClose byte = 3
	// KindEventsBinary frames an acknowledged event batch in the binary
	// wire framing: a uvarint tenant length, the tenant bytes, then the
	// frame payload of wire.AppendEventsBinary (event count + events).
	// The append path encodes events straight to these bytes with no
	// JSON round-trip.
	KindEventsBinary byte = 4
)

// OpenRecord is the payload of a KindOpen record, appended once the
// engine installs a session and before the open is acknowledged.
type OpenRecord struct {
	Tenant string          `json:"tenant" doc:"the opened tenant"`
	Spec   json.RawMessage `json:"spec" doc:"the session's open spec (a wire OpenRequest) without its demand stream, rebuilt into the same deterministic algorithm on recovery; a full spec, as earlier builds logged it, recovers identically"`
}

// CloseRecord is the payload of a KindClose record, appended before the
// engine seals a session.
type CloseRecord struct {
	Tenant string `json:"tenant" doc:"the sealed tenant; later events records for it are dropped on recovery, and the next compaction reclaims its history"`
}

// crcTable is the Castagnoli polynomial every record CRC uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrLogClosed is returned by appends after Close.
var ErrLogClosed = errors.New("wal: log closed")

// errTorn marks a record that ends past the readable bytes or fails its
// CRC — the torn-write signature. It is only tolerated (and truncated)
// at the tail of the final segment.
var errTorn = errors.New("wal: torn record")

// Options sizes a Log. The zero value is a usable non-fsyncing log.
type Options struct {
	// Fsync syncs the active segment before an append is acknowledged.
	// Concurrent appenders share syncs (group commit): one fsync covers
	// every record written before it. Off, acknowledged records survive
	// process crashes (they are written straight to the file) but not
	// machine crashes.
	Fsync bool
	// SegmentBytes is the rotation threshold: a segment that has grown
	// past it is retired and appends continue in a fresh one.
	// Default 4 MiB.
	SegmentBytes int64
	// CompactEvery triggers an automatic compaction after this many
	// appended records. 0 disables automatic compaction (Compact can
	// still be called explicitly).
	CompactEvery int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Session is one tenant's recovered state: the spec that opens it, the
// full logged event history in order, and whether it was sealed.
type Session struct {
	Tenant string
	Spec   []byte // the open spec JSON (a wire.OpenRequest)
	Events []stream.Event
	Closed bool
}

// Stats samples the log's counters.
type Stats struct {
	// Appends counts acknowledged record appends.
	Appends int64
	// Syncs counts fsyncs issued; under concurrent load it is smaller
	// than Appends (group commit).
	Syncs int64
	// Compactions counts completed compactions.
	Compactions int64
	// CompactionFailures counts automatic compactions that failed (the
	// log keeps appending; the next threshold retries).
	CompactionFailures int64
	// Segment is the active segment index.
	Segment uint64
	// SegmentBytes is the active segment's current size.
	SegmentBytes int64
}

// Log is an append-only write-ahead log rooted at one directory. It is
// safe for concurrent use; per-tenant record order is the caller's
// submission order (the engine submits one tenant from one goroutine).
type Log struct {
	dir  string
	opts Options

	// mu guards the append path: active file, sizes, counters.
	mu      sync.Mutex
	f       *os.File
	index   uint64 // active segment index
	first   uint64 // lowest live segment index
	size    int64
	seq     uint64 // records appended since Open
	recs    int64  // records since the last compaction
	retired []*os.File
	failed  error // sticky append failure; the torn tail is recoverable
	closed  bool

	// syncMu serializes fsyncs and guards synced. Lock order is always
	// syncMu before mu; mu is never held while acquiring syncMu.
	syncMu sync.Mutex
	synced uint64 // highest seq known durable

	recovered []Session
	lock      *os.File // exclusive data-dir lock; nil on non-unix

	appends         atomic.Int64
	syncs           atomic.Int64
	compactions     atomic.Int64
	compactFailures atomic.Int64

	encBufs sync.Pool // *[]byte, binary record encode scratch
}

// segPath names segment idx inside dir.
func segPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.wal", idx))
}

// compactTmp is the compaction scratch file, deleted on Open if a crash
// left it behind.
const compactTmp = "compact.tmp"

// listSegments returns the segment indices present in dir, sorted
// numerically. Any all-digit name is accepted — segPath zero-pads to 8
// digits, but an index past 99,999,999 widens the name and must still
// be found by recovery.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, e := range entries {
		base, ok := strings.CutSuffix(e.Name(), ".wal")
		if e.IsDir() || !ok || base == "" {
			continue
		}
		idx, err := strconv.ParseUint(base, 10, 64)
		if err != nil {
			continue
		}
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// Open opens (or creates) the log in dir, scans every live segment to
// rebuild the recovered sessions (Recover returns them), truncates a
// torn tail, and positions the log for appending. A snapshot segment
// supersedes everything older; superseded and half-created files left by
// a crash are deleted.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// One writer per directory: a second process would truncate and
	// interleave with this one's appends.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	l, err := openLocked(dir, opts, lock)
	if err != nil && lock != nil {
		lock.Close()
	}
	return l, err
}

// openLocked is Open past the directory lock.
func openLocked(dir string, opts Options, lock *os.File) (*Log, error) {
	os.Remove(filepath.Join(dir, compactTmp))
	idxs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, lock: lock}

	// Header pass: find the newest snapshot, and drop a final segment
	// whose header never finished (a crash during rotation).
	var flags []uint32
	for i := 0; i < len(idxs); i++ {
		fl, err := readSegHeader(segPath(dir, idxs[i]))
		if errors.Is(err, errShortHeader) && i == len(idxs)-1 {
			if err := os.Remove(segPath(dir, idxs[i])); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			idxs = idxs[:i]
			break
		}
		if err != nil {
			return nil, fmt.Errorf("wal: segment %08d: %w", idxs[i], err)
		}
		flags = append(flags, fl)
	}
	if len(idxs) == 0 {
		if err := l.createSegment(1, 0); err != nil {
			return nil, err
		}
		l.first = 1
		return l, nil
	}
	start := 0
	for i, fl := range flags {
		if fl&FlagSnapshot != 0 {
			start = i
		}
	}
	// Superseded pre-snapshot segments are deleted only after the live
	// segments scan cleanly: until then they are the one redundant copy
	// of the histories the snapshot claims to hold.
	superseded := idxs[:start]
	idxs = idxs[start:]
	l.first = idxs[0]
	// Live segments are created contiguously (rotation and compaction
	// both advance by one), so a gap means a deleted or lost segment —
	// acknowledged records are gone, and replaying around the hole would
	// serve silently wrong sessions.
	for i := 1; i < len(idxs); i++ {
		if idxs[i] != idxs[i-1]+1 {
			return nil, fmt.Errorf("wal: segment %08d missing (found %08d then %08d): acknowledged data lost; restore the directory from backup", idxs[i-1]+1, idxs[i-1], idxs[i])
		}
	}

	// Record pass: replay every segment in order; only the final one may
	// end torn, and its torn tail is truncated in place.
	st := newScanState()
	for i, idx := range idxs {
		tail := i == len(idxs)-1
		path := segPath(dir, idx)
		valid, err := scanSegment(path, tail, st)
		if err != nil {
			return nil, err
		}
		if tail {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			if _, err := f.Seek(valid, 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.f, l.index, l.size = f, idx, valid
		}
	}
	for _, idx := range superseded {
		if err := os.Remove(segPath(dir, idx)); err != nil {
			l.f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	l.recovered = st.sessions()
	return l, nil
}

// errShortHeader marks a segment file shorter than its header — the
// signature of a crash during segment creation.
var errShortHeader = errors.New("wal: short segment header")

// readSegHeader validates a segment's header and returns its flags.
func readSegHeader(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [SegHeaderSize]byte
	// ReadFull, not Read: a legal short read (NFS and friends) must not
	// be mistaken for a truncated header — that verdict deletes files.
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, errShortHeader
		}
		return 0, err
	}
	return parseSegHeader(hdr[:])
}

// parseSegHeader validates the 16 header bytes and returns the flags.
func parseSegHeader(hdr []byte) (uint32, error) {
	if len(hdr) < SegHeaderSize {
		return 0, errShortHeader
	}
	if string(hdr[:8]) != SegMagic {
		return 0, fmt.Errorf("bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != SegVersion {
		return 0, fmt.Errorf("unsupported segment version %d (this build reads version %d; drain or recover the log with the build that wrote it)", v, SegVersion)
	}
	return binary.LittleEndian.Uint32(hdr[12:16]), nil
}

// segHeader renders the 16 header bytes for flags.
func segHeader(fl uint32) []byte {
	hdr := make([]byte, SegHeaderSize)
	copy(hdr, SegMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], SegVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], fl)
	return hdr
}

// parseRecord decodes one record from the front of data. It returns the
// record's kind, payload and framed size. A record that runs past the
// data, declares an absurd length, or fails its CRC returns errTorn.
func parseRecord(data []byte) (kind byte, payload []byte, n int, err error) {
	if len(data) < RecHeaderSize {
		return 0, nil, 0, errTorn
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	if length == 0 || length > MaxRecordBytes {
		return 0, nil, 0, errTorn
	}
	if uint64(len(data)) < RecHeaderSize+uint64(length) {
		return 0, nil, 0, errTorn
	}
	body := data[RecHeaderSize : RecHeaderSize+int(length)]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return 0, nil, 0, errTorn
	}
	return body[0], body[1:], RecHeaderSize + int(length), nil
}

// frameRecord renders one record frame for a kind and payload.
func frameRecord(kind byte, payload []byte) []byte {
	body := make([]byte, 1+len(payload))
	body[0] = kind
	copy(body[1:], payload)
	buf := make([]byte, RecHeaderSize+len(body))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(body, crcTable))
	copy(buf[RecHeaderSize:], body)
	return buf
}

// scanState accumulates per-tenant sessions while replaying records,
// with the same drop semantics the live engine has: events for unknown
// or closed tenants are ignored, and a duplicate open keeps the first.
type scanState struct {
	byTenant map[string]*Session
	order    []*Session
}

func newScanState() *scanState {
	return &scanState{byTenant: map[string]*Session{}}
}

// sessions returns the accumulated sessions in first-open order.
func (st *scanState) sessions() []Session {
	out := make([]Session, len(st.order))
	for i, s := range st.order {
		out[i] = *s
	}
	return out
}

// apply replays one record into the state.
func (st *scanState) apply(kind byte, payload []byte) error {
	switch kind {
	case KindOpen:
		var r OpenRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return fmt.Errorf("open record: %w", err)
		}
		if _, ok := st.byTenant[r.Tenant]; ok {
			return nil // duplicate open was rejected live; keep the first
		}
		s := &Session{Tenant: r.Tenant, Spec: []byte(r.Spec)}
		st.order = append(st.order, s)
		st.byTenant[r.Tenant] = s
	case KindEventsBinary:
		tenant, body, err := splitTenantPayload(payload)
		if err != nil {
			return fmt.Errorf("binary events record: %w", err)
		}
		s, ok := st.byTenant[tenant]
		if !ok || s.Closed {
			return nil // dropped live, dropped on recovery
		}
		evs, err := wire.DecodeEventsBinary(body)
		if err != nil {
			return fmt.Errorf("binary events record for %q: %w", tenant, err)
		}
		s.Events = append(s.Events, evs...)
	case KindClose:
		var r CloseRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return fmt.Errorf("close record: %w", err)
		}
		if s, ok := st.byTenant[r.Tenant]; ok {
			s.Closed = true
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// scanSegment replays one segment's records into st and returns the
// byte offset of the last whole record. Only the tail segment may end
// torn; anywhere else a torn record is corruption of acknowledged data
// and is an error.
func scanSegment(path string, tail bool, st *scanState) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := parseSegHeader(b); err != nil {
		return 0, fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
	}
	off := int64(SegHeaderSize)
	for off < int64(len(b)) {
		kind, payload, n, err := parseRecord(b[off:])
		if errors.Is(err, errTorn) {
			if !tail {
				return 0, fmt.Errorf("wal: segment %s: corrupt record at offset %d before the log tail (acknowledged data lost)", filepath.Base(path), off)
			}
			return off, nil
		}
		if err != nil {
			return 0, fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
		}
		if err := st.apply(kind, payload); err != nil {
			return 0, fmt.Errorf("wal: segment %s: offset %d: %w", filepath.Base(path), off, err)
		}
		off += int64(n)
	}
	return off, nil
}

// Recover returns the sessions rebuilt by Open's scan, in first-open
// order. The slice reflects the on-disk state at Open; appends made
// since are not folded in.
func (l *Log) Recover() []Session {
	return l.recovered
}

// createSegment makes segment idx the active file. Callers hold mu (or
// own the log exclusively, as Open does).
func (l *Log) createSegment(idx uint64, fl uint32) error {
	f, err := os.OpenFile(segPath(l.dir, idx), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segHeader(fl)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if err := syncDir(l.dir); err != nil {
			return err
		}
	}
	l.f, l.index, l.size = f, idx, SegHeaderSize
	return nil
}

// syncDir fsyncs the log directory, making renames and creations
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// appendRaw frames and writes one record from already-encoded payload
// bytes, rotating and group-committing as configured. The record is
// durable (to the file; to disk under Fsync) when appendRaw returns nil
// — the caller may acknowledge.
func (l *Log) appendRaw(kind byte, payload []byte) error {
	// Enforce the read path's bound before writing: a larger record
	// would be acknowledged now and rejected as corruption on recovery.
	if len(payload)+1 > MaxRecordBytes {
		return fmt.Errorf("wal: record body of %d bytes exceeds the %d-byte record limit", len(payload)+1, MaxRecordBytes)
	}
	buf := frameRecord(kind, payload)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			l.failed = err
			l.mu.Unlock()
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		// A partial frame is now the torn tail; poison further appends
		// so nothing is ever written after it.
		l.failed = fmt.Errorf("wal: append: %w", err)
		err := l.failed
		l.mu.Unlock()
		return err
	}
	l.size += int64(len(buf))
	l.seq++
	seq := l.seq
	l.recs++
	compact := l.opts.CompactEvery > 0 && l.recs >= l.opts.CompactEvery
	if compact {
		l.recs = 0
	}
	l.mu.Unlock()
	l.appends.Add(1)

	if l.opts.Fsync {
		if err := l.syncTo(seq); err != nil {
			return err
		}
	}
	if compact {
		// Best effort: the record above is already durable, and failing
		// the acknowledged append here would make the caller resubmit a
		// logged batch (duplicating it on recovery). The next threshold
		// retries.
		if err := l.Compact(); err != nil {
			l.compactFailures.Add(1)
		}
	}
	return nil
}

// syncTo makes every record up to seq durable, sharing fsyncs between
// concurrent appenders: whoever acquires syncMu first syncs for the
// whole group, and the rest observe synced already past their seq.
func (l *Log) syncTo(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= seq {
		return nil
	}
	l.mu.Lock()
	f, cur, failed := l.f, l.seq, l.failed
	l.mu.Unlock()
	if failed != nil {
		return failed
	}
	// Records beyond the active segment were synced by rotation, so
	// syncing the active file covers everything up to cur.
	if err := f.Sync(); err != nil {
		// Poison the log: the record is written but its durability is
		// unknown (a failed fsync may mark dirty pages clean, so a later
		// "successful" sync proves nothing about it). Un-poisoned, the
		// caller's resubmission of this un-acknowledged batch would be
		// logged a second time and replayed twice on recovery.
		err = fmt.Errorf("wal: fsync: %w", err)
		l.mu.Lock()
		l.failed = err
		l.mu.Unlock()
		return err
	}
	l.synced = cur
	l.syncs.Add(1)
	return nil
}

// rotate retires the active segment and starts the next one. Under
// Fsync the old segment is synced first, so syncTo's active-file sync
// always covers the whole unsynced suffix. Retired files stay open (a
// concurrent group commit may still be syncing one) and are closed by
// Compact or Close. Callers hold mu.
func (l *Log) rotate() error {
	if l.opts.Fsync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	// Retire the old handle only once the new segment exists: on a
	// createSegment failure l.f must stay the single owner, or Close
	// would close the aliased handle twice and mask the real error.
	old := l.f
	if err := l.createSegment(l.index+1, 0); err != nil {
		return err
	}
	l.retired = append(l.retired, old)
	return nil
}

// LogOpen appends a session-open record: the tenant and the spec that
// deterministically rebuilds its algorithm.
func (l *Log) LogOpen(tenant string, spec []byte) error {
	payload, err := EncodeOpenRecord(tenant, spec)
	if err != nil {
		return err
	}
	return l.appendRaw(KindOpen, payload)
}

// LogEvents appends one acknowledged event batch as a binary events
// record: the events are encoded straight into the binary wire framing
// (no wire.Event conversion, no JSON marshal) from a pooled buffer —
// the durable twin of the server's zero-alloc ingestion path.
func (l *Log) LogEvents(tenant string, evs []stream.Event) error {
	bufp, _ := l.encBufs.Get().(*[]byte)
	if bufp == nil {
		bufp = new([]byte)
	}
	defer l.encBufs.Put(bufp)
	payload, err := AppendEventsRecord((*bufp)[:0], tenant, evs)
	*bufp = payload
	if err != nil {
		return err
	}
	return l.appendRaw(KindEventsBinary, payload)
}

// splitTenantPayload splits a KindEventsBinary payload into its tenant
// and event-frame bytes.
func splitTenantPayload(payload []byte) (string, []byte, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload)-w) {
		return "", nil, errors.New("bad tenant length")
	}
	return string(payload[w : w+int(n)]), payload[w+int(n):], nil
}

// LogClose appends a session-close record.
func (l *Log) LogClose(tenant string) error {
	payload, err := EncodeCloseRecord(tenant)
	if err != nil {
		return err
	}
	return l.appendRaw(KindClose, payload)
}

// compactChunk caps events per consolidated record so snapshot records
// stay bounded.
const compactChunk = 2048

// Compact rewrites the log as one snapshot segment: per live (not
// closed) tenant, an open record followed by its consolidated event
// history. The snapshot is written to a temp file, synced, renamed into
// place and only then do the superseded segments go away, so a crash at
// any point leaves either the old segments or a complete snapshot.
// Appends are blocked for the duration.
func (l *Log) Compact() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}

	// Re-scan the live segments; every record in them is complete (the
	// log wrote them), so the scan is strict.
	st := newScanState()
	for idx := l.first; idx <= l.index; idx++ {
		if _, err := scanSegment(segPath(l.dir, idx), false, st); err != nil {
			return err
		}
	}

	tmp := filepath.Join(l.dir, compactTmp)
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	writeRaw := func(kind byte, body []byte) error {
		// compactChunk keeps consolidated records far below the limit,
		// but a single oversized logged record would resurface here.
		if len(body)+1 > MaxRecordBytes {
			return fmt.Errorf("wal: record body of %d bytes exceeds the %d-byte record limit", len(body)+1, MaxRecordBytes)
		}
		if _, err := f.Write(frameRecord(kind, body)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		return nil
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(segHeader(FlagSnapshot)); err != nil {
		return fail(fmt.Errorf("wal: %w", err))
	}
	for _, s := range st.sessions() {
		if s.Closed {
			continue // close is the retention boundary
		}
		open, err := EncodeOpenRecord(s.Tenant, s.Spec)
		if err != nil {
			return fail(err)
		}
		if err := writeRaw(KindOpen, open); err != nil {
			return fail(err)
		}
		for lo := 0; lo < len(s.Events); lo += compactChunk {
			hi := min(lo+compactChunk, len(s.Events))
			body, err := AppendEventsRecord(nil, s.Tenant, s.Events[lo:hi])
			if err != nil {
				return fail(err)
			}
			if err := writeRaw(KindEventsBinary, body); err != nil {
				return fail(err)
			}
		}
	}
	// The snapshot is always synced — the rename below must never become
	// visible before its contents.
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("wal: %w", err))
	}
	if err := f.Close(); err != nil {
		return fail(fmt.Errorf("wal: %w", err))
	}
	snapIdx := l.index + 1
	if err := os.Rename(tmp, segPath(l.dir, snapIdx)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		// The snapshot may already be visible at a higher index than the
		// active segment; appending to the old segment now would be
		// silently superseded (and lost) on the next recovery. Poison
		// the log so no further append can be acknowledged.
		l.failed = err
		return err
	}

	// The snapshot is durable and supersedes everything older: retire
	// the old segments and continue appending in a fresh one.
	oldFirst, oldIndex := l.first, l.index
	for _, rf := range l.retired {
		rf.Close()
	}
	l.retired = nil
	l.f.Close()
	if err := l.createSegment(snapIdx+1, 0); err != nil {
		l.failed = err
		return err
	}
	l.first = snapIdx
	for idx := oldFirst; idx <= oldIndex; idx++ {
		os.Remove(segPath(l.dir, idx))
	}
	l.synced = l.seq // everything live is in the synced snapshot
	l.compactions.Add(1)
	return nil
}

// Close syncs (under Fsync) and closes the log. Appends after Close
// return ErrLogClosed.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.opts.Fsync && l.failed == nil {
		err = l.f.Sync()
	}
	for _, rf := range l.retired {
		rf.Close()
	}
	l.retired = nil
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if l.lock != nil {
		l.lock.Close() // releases the data-dir flock
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Stats samples the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:            l.appends.Load(),
		Syncs:              l.syncs.Load(),
		Compactions:        l.compactions.Load(),
		CompactionFailures: l.compactFailures.Load(),
		Segment:            l.index,
		SegmentBytes:       l.size,
	}
}
