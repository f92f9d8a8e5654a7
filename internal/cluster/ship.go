package cluster

// Log shipping: a Shipper streams a node's acknowledged WAL records to
// each tenant's next successor on the ring, over the binary wire
// framing. ReplicatedLog is the engine-facing wrapper that appends a
// record locally and hands the same bytes to the Shipper — so a
// follower log is byte-compatible with one the tenant wrote locally.
//
// Delivery guarantees are deliberately asymmetric: a follower is always
// a clean prefix of the primary's acknowledged record stream, never a
// corrupted middle. Per-peer queues are FIFO and a batch that fails
// with a structured error resumes exactly after the server's applied
// count; a batch that fails ambiguously (transport error — the peer
// may or may not have applied a prefix) stops replication to that peer
// for the life of the process instead of risking double-applied
// records. Failover resumes any lost suffix from the client side, which
// replays events after the recovered processed count.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"leasing/internal/stream"
	"leasing/internal/wal"
	"leasing/internal/wire"
)

// shipRetries is how many times a batch with a structured error
// response is resumed before the peer is failed.
const shipRetries = 3

// ShipperOptions shapes a Shipper.
type ShipperOptions struct {
	// Token is sent as the bearer token when non-empty (the replicate
	// endpoint is admin-scoped).
	Token string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// QueueDepth bounds each peer's outbound record queue. A full queue
	// fails the peer (see package comment). Default 8192.
	QueueDepth int
	// BatchRecords caps records per replicate request. Default 256.
	BatchRecords int
	// RetryWait is the pause between the resumptions of a batch with a
	// structured error response (see shipRetries). Default 50ms.
	RetryWait time.Duration
}

func (o ShipperOptions) withDefaults() ShipperOptions {
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 8192
	}
	if o.BatchRecords < 1 {
		o.BatchRecords = 256
	}
	if o.RetryWait <= 0 {
		o.RetryWait = 50 * time.Millisecond
	}
	return o
}

// ShipperStats samples a Shipper's counters.
type ShipperStats struct {
	// Shipped counts records acknowledged by peers.
	Shipped int64
	// Batches counts replicate requests that succeeded.
	Batches int64
	// Dropped counts records discarded because their peer had failed.
	Dropped int64
	// FailedPeers lists peers replication has given up on, sorted.
	FailedPeers []string
}

// shipRec is one queued record.
type shipRec struct {
	kind    byte
	payload []byte // owned by the shipper
}

// peerQueue is one peer's outbound FIFO.
type peerQueue struct {
	url string
	ch  chan shipRec

	mu     sync.Mutex
	idle   bool // worker drained the queue and is blocked receiving
	failed bool
	cond   *sync.Cond
}

// Shipper streams WAL records to ring successors. Create it with
// NewShipper; Ship is safe for concurrent use. Per-tenant record order
// is the caller's call order, as with the WAL itself.
type Shipper struct {
	self  string
	ring  *Ring
	opts  ShipperOptions
	peers map[string]*peerQueue

	mu      sync.Mutex
	shipped int64
	batches int64
	dropped int64

	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewShipper builds a shipper for self inside the peer ring. Peers
// other than self each get an outbound queue and a worker goroutine.
func NewShipper(self string, peers []string, opts ShipperOptions) (*Shipper, error) {
	ring, err := New(peers, 0)
	if err != nil {
		return nil, err
	}
	if !ring.Has(self) {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", self)
	}
	s := &Shipper{self: self, ring: ring, opts: opts.withDefaults(), peers: map[string]*peerQueue{}}
	for _, p := range ring.Members() {
		if p == self {
			continue
		}
		q := &peerQueue{url: p, ch: make(chan shipRec, s.opts.QueueDepth)}
		q.cond = sync.NewCond(&q.mu)
		s.peers[p] = q
		s.wg.Add(1)
		go s.run(q)
	}
	return s, nil
}

// Ring returns the shipper's placement ring (shared with the server's
// redirect logic and the cluster client).
func (s *Shipper) Ring() *Ring { return s.ring }

// destFor picks where a tenant's records ship: the next distinct
// member after self in the tenant's successor order. For the tenant's
// owner that is its replica; for a node that adopted the tenant at
// failover it is the next live candidate down the chain — so adopted
// history keeps a copy off-node too.
func (s *Shipper) destFor(tenant string) *peerQueue {
	succ := s.ring.Successors(tenant, len(s.ring.members))
	for i, m := range succ {
		if m == s.self {
			return s.peers[succ[(i+1)%len(succ)]] // nil for self (single node)
		}
	}
	// Self not in the successor list is impossible — Successors spans
	// every member — but routing to the replica loses nothing.
	return s.peers[s.ring.Replica(tenant)]
}

// Ship enqueues one acknowledged record for the tenant's successor.
// The payload is copied: callers may reuse their buffer. A full or
// failed peer drops the record and, if the queue was full, fails the
// peer — the follower stays a clean prefix (see package comment).
func (s *Shipper) Ship(tenant string, kind byte, payload []byte) {
	q := s.destFor(tenant)
	if q == nil {
		return // single-node ring: nothing to replicate to
	}
	q.mu.Lock()
	// Checked under q.mu, which Close holds while closing the channel:
	// a Ship that sees closed=false here sends before the close.
	if q.failed || s.closed.Load() {
		q.mu.Unlock()
		s.count(&s.dropped, 1)
		return
	}
	rec := shipRec{kind: kind, payload: append([]byte(nil), payload...)}
	select {
	case q.ch <- rec:
		q.idle = false
		q.mu.Unlock()
	default:
		// Backpressure from a peer that cannot keep up. Blocking here
		// would stall the primary's append path; skipping one record
		// would corrupt the follower. Fail the whole peer instead.
		q.failed = true
		q.mu.Unlock()
		s.count(&s.dropped, 1)
	}
}

func (s *Shipper) count(c *int64, n int64) {
	s.mu.Lock()
	*c += n
	s.mu.Unlock()
}

// run is one peer's worker: it drains the queue into batched replicate
// requests, preserving FIFO order.
func (s *Shipper) run(q *peerQueue) {
	defer s.wg.Done()
	for {
		rec, ok := s.next(q)
		if !ok {
			return
		}
		batch := []shipRec{rec}
		// Opportunistically coalesce whatever is already queued.
	drain:
		for len(batch) < s.opts.BatchRecords {
			select {
			case more, ok := <-q.ch:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		s.send(q, batch)
	}
}

// next blocks for the next record, marking the queue idle while empty
// (Flush watches that flag).
func (s *Shipper) next(q *peerQueue) (shipRec, bool) {
	select {
	case rec, ok := <-q.ch:
		return rec, ok
	default:
	}
	q.mu.Lock()
	q.idle = true
	q.cond.Broadcast()
	q.mu.Unlock()
	rec, ok := <-q.ch
	q.mu.Lock()
	q.idle = false
	q.mu.Unlock()
	return rec, ok
}

// send delivers one batch, resuming after the server's applied count on
// structured errors and failing the peer on ambiguity.
func (s *Shipper) send(q *peerQueue, batch []shipRec) {
	q.mu.Lock()
	failed := q.failed
	q.mu.Unlock()
	if failed {
		s.count(&s.dropped, int64(len(batch)))
		s.markIdleIfDrained(q)
		return
	}
	offset := 0
	for attempt := 0; attempt <= shipRetries; attempt++ {
		applied, err := s.post(q.url, batch[offset:])
		offset += applied
		s.count(&s.shipped, int64(applied))
		if err == nil && offset == len(batch) {
			s.count(&s.batches, 1)
			s.markIdleIfDrained(q)
			return
		}
		if _, structured := err.(*wire.Error); !structured {
			break // ambiguous: the peer may hold an unacknowledged prefix
		}
		time.Sleep(s.opts.RetryWait)
	}
	q.mu.Lock()
	q.failed = true
	q.mu.Unlock()
	s.count(&s.dropped, int64(len(batch)-offset))
}

// markIdleIfDrained republishes idleness after a send if nothing is
// queued, so Flush cannot miss the worker between batches.
func (s *Shipper) markIdleIfDrained(q *peerQueue) {
	if len(q.ch) != 0 {
		return
	}
	q.mu.Lock()
	if len(q.ch) == 0 {
		q.idle = true
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// post sends one replicate request and returns how many records the
// peer applied. A structured wire error is returned as *wire.Error
// (with its applied count already extracted); anything else is
// ambiguous.
func (s *Shipper) post(url string, recs []shipRec) (int, error) {
	var body bytes.Buffer
	body.WriteString(wire.BinaryMagic)
	frame := make([]byte, 0, 512)
	for _, rec := range recs {
		frame = frame[:0]
		frame = append(frame, rec.kind)
		frame = append(frame, rec.payload...)
		b := body.AvailableBuffer()
		body.Write(wire.AppendFrame(b, frame))
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/replica/records", &body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	if s.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+s.opts.Token)
	}
	resp, err := s.opts.HTTPClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		apiErr := &wire.Error{}
		if err := json.NewDecoder(resp.Body).Decode(apiErr); err != nil || apiErr.Code == "" {
			return 0, fmt.Errorf("cluster: replicate: unexpected status %d", resp.StatusCode)
		}
		return apiErr.Accepted, apiErr
	}
	var ack wire.ReplicateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, err // acknowledged but unreadable: ambiguous
	}
	io.Copy(io.Discard, resp.Body)
	return ack.Applied, nil
}

// Flush blocks until every queued record has been sent (or its peer
// failed). It is the replication barrier the drill uses before killing
// a node.
func (s *Shipper) Flush() {
	for _, q := range s.peers {
		q.mu.Lock()
		for !q.idle && !q.failed {
			q.cond.Wait()
		}
		q.mu.Unlock()
	}
}

// Close drains and stops the workers. Further Ship calls are counted
// as drops; further Close calls are no-ops.
func (s *Shipper) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.Flush()
	for _, q := range s.peers {
		q.mu.Lock()
		close(q.ch)
		q.mu.Unlock()
	}
	s.wg.Wait()
}

// Stats samples the shipper.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	st := ShipperStats{Shipped: s.shipped, Batches: s.batches, Dropped: s.dropped}
	s.mu.Unlock()
	for p, q := range s.peers {
		q.mu.Lock()
		if q.failed {
			st.FailedPeers = append(st.FailedPeers, p)
		}
		q.mu.Unlock()
	}
	sort.Strings(st.FailedPeers)
	return st
}

// ReplicatedLog wraps a node's write-ahead log so every acknowledged
// record is also shipped to the tenant's ring successor. It implements
// the engine's WAL interface; the record bytes appended locally and
// shipped are identical.
type ReplicatedLog struct {
	log *wal.Log
	sh  *Shipper
}

// NewReplicatedLog wraps log with shipping through sh.
func NewReplicatedLog(log *wal.Log, sh *Shipper) *ReplicatedLog {
	return &ReplicatedLog{log: log, sh: sh}
}

// Log returns the wrapped local log.
func (r *ReplicatedLog) Log() *wal.Log { return r.log }

// LogOpen appends and ships a session-open record.
func (r *ReplicatedLog) LogOpen(tenant string, spec []byte) error {
	payload, err := wal.EncodeOpenRecord(tenant, spec)
	if err != nil {
		return err
	}
	if err := r.log.AppendRecord(wal.KindOpen, payload); err != nil {
		return err
	}
	r.sh.Ship(tenant, wal.KindOpen, payload)
	return nil
}

// LogEvents appends and ships one acknowledged event batch.
func (r *ReplicatedLog) LogEvents(tenant string, evs []stream.Event) error {
	payload, err := wal.AppendEventsRecord(nil, tenant, evs)
	if err != nil {
		return err
	}
	if err := r.log.AppendRecord(wal.KindEventsBinary, payload); err != nil {
		return err
	}
	r.sh.Ship(tenant, wal.KindEventsBinary, payload)
	return nil
}

// LogClose appends and ships a session-close record.
func (r *ReplicatedLog) LogClose(tenant string) error {
	payload, err := wal.EncodeCloseRecord(tenant)
	if err != nil {
		return err
	}
	if err := r.log.AppendRecord(wal.KindClose, payload); err != nil {
		return err
	}
	r.sh.Ship(tenant, wal.KindClose, payload)
	return nil
}
