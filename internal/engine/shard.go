package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"leasing/internal/stream"
)

type opKind uint8

const (
	opOpen opKind = iota + 1
	opEvents
	opFlush
	opSnapshot
	opClose
	opStop
)

// op is one queued operation. Open, Flush, Snapshot and Close carry a
// reply channel; Events carries the payload. The queue is strictly FIFO,
// which is what makes Open a write barrier and Flush and Snapshot read
// barriers.
type op struct {
	kind    opKind
	tenant  string
	leaser  stream.Leaser
	events  []stream.Event
	spec    []byte           // open spec to WAL-log during install; nil = don't log
	nolog   bool             // close op: skip WAL logging (Restore replays)
	release func()           // events op: called once the shard is done with events
	sol     *stream.Solution // snapshot op: filled in before done is sent
	done    chan error
}

// sessionState is the immutable read view a shard publishes for a
// session after each batch that touched it. It holds only O(1) parts:
// decisions and curve are length-capped snapshot headers into the
// Recorder's backing arrays (see Recorder.Recorded), race-free under
// appends. The solution is not published; Engine.Snapshot computes it
// on the shard goroutine when asked.
type sessionState struct {
	events    int64
	cost      stream.CostBreakdown
	decisions []stream.Decision
	curve     []stream.CurvePoint
	closed    bool // sealed; the shard drops further events
	err       error
}

// session is one tenant's serving state. The leaser and recorder are
// owned exclusively by the shard goroutine while it runs; everyone else
// reads the published state or asks the shard for a snapshot.
type session struct {
	tenant string
	leaser stream.Leaser
	rec    *stream.Recorder
	state  atomic.Pointer[sessionState]
	failed bool
	closed bool  // sealed by CloseTenant; reads stay valid, events drop
	err    error // the failure, carried into every published state
}

// publish refreshes the session's read view from its leaser.
func (s *session) publish(keepRuns bool) {
	st := &sessionState{
		events: int64(s.rec.Events()),
		cost:   s.leaser.Cost(),
		closed: s.closed,
		err:    s.err,
	}
	if keepRuns {
		st.decisions, st.curve = s.rec.Recorded()
	}
	s.state.Store(st)
}

// shard owns a subset of sessions and drains its queue on one goroutine.
// sessions is the goroutine-private registry; reg is its copy-on-write
// published twin for lock-free lookups by readers and Submit-side code.
type shard struct {
	id    int
	cfg   Config
	queue chan op

	// ingest makes durable TrySubmitBatch admissions atomic (room check
	// + reservation); reserved counts slots admitted but not yet
	// enqueued, so the WAL append can run outside the lock without a
	// later admission stealing the room. Unused without a WAL.
	ingest   sync.Mutex
	reserved atomic.Int64

	sessions map[string]*session                 // shard goroutine only
	reg      atomic.Pointer[map[string]*session] // published on Open

	// Counters: written only by the shard goroutine, read via atomics.
	events   atomic.Int64
	batches  atomic.Int64
	dropped  atomic.Int64
	costBits atomic.Uint64 // math.Float64bits of cumulative cost
}

func newShard(id int, cfg Config) *shard {
	sh := &shard{
		id:       id,
		cfg:      cfg,
		queue:    make(chan op, cfg.QueueDepth),
		sessions: make(map[string]*session),
	}
	empty := map[string]*session{}
	sh.reg.Store(&empty)
	return sh
}

// lookup finds a session in the published registry without locking.
func (sh *shard) lookup(tenant string) *session {
	return (*sh.reg.Load())[tenant]
}

// run is the shard goroutine: block for one op, greedily drain more up
// to BatchSize events, apply them in order, then publish the touched
// sessions' state once. It exits on opStop, which Close enqueues last.
func (sh *shard) run(done interface{ Done() }) {
	defer done.Done()
	touched := make(map[*session]struct{}, 16)
	batch := make([]op, 0, 32)
	for {
		batch = append(batch[:0], <-sh.queue)
		n := len(batch[0].events)
	drain:
		for n < sh.cfg.BatchSize && batch[len(batch)-1].kind != opStop {
			select {
			case o := <-sh.queue:
				batch = append(batch, o)
				n += len(o.events)
			default:
				break drain
			}
		}
		stop := false
		for _, o := range batch {
			switch o.kind {
			case opOpen:
				o.done <- sh.open(o.tenant, o.leaser, o.spec)
			case opEvents:
				sh.apply(o, touched)
				// The batch is consumed (applied, partially applied on a
				// session failure, or dropped) — hand its buffers back.
				// The queue drains fully before opStop, so every enqueued
				// batch is released exactly once.
				if o.release != nil {
					o.release()
				}
			case opFlush:
				// All ops queued before this flush have been applied;
				// publish before acking so the barrier covers reads.
				sh.publish(touched)
				o.done <- nil
			case opSnapshot:
				// Every op queued for the tenant before this one has been
				// applied, so the snapshot covers them; publish first so
				// Cost and Events are no older than the snapshot.
				sh.publish(touched)
				s := sh.sessions[o.tenant]
				*o.sol = s.leaser.Snapshot()
				o.done <- s.err
			case opClose:
				o.done <- sh.close(o.tenant, o.nolog, touched)
			case opStop:
				stop = true
			}
		}
		sh.publish(touched)
		sh.batches.Add(1)
		if stop {
			return
		}
	}
}

// open installs a new session and republishes the registry copy. On a
// durable engine the open record is appended here, between the
// duplicate check and the registry publish: only the winning spec of
// racing duplicate opens is logged, and no submit can observe (and
// therefore log events for) a session whose own open record is not
// already in the log.
func (sh *shard) open(tenant string, l stream.Leaser, spec []byte) error {
	if _, ok := sh.sessions[tenant]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateTenant, tenant)
	}
	if sh.cfg.WAL != nil && spec != nil {
		if err := sh.cfg.WAL.LogOpen(tenant, spec); err != nil {
			return fmt.Errorf("%w: open %q: %v", ErrWAL, tenant, err)
		}
	}
	s := &session{tenant: tenant, leaser: l, rec: stream.NewRecorder(sh.cfg.RecordRuns)}
	s.state.Store(&sessionState{})
	sh.sessions[tenant] = s
	reg := make(map[string]*session, len(sh.sessions))
	for k, v := range sh.sessions {
		reg[k] = v
	}
	sh.reg.Store(&reg)
	return nil
}

// close seals a session: every event queued for the tenant before the
// close op has already been applied (the queue is FIFO), so publishing
// here makes the final state visible before the caller's CloseTenant
// returns. On a durable engine the close record is appended here, after
// validation (unknown and double closes never pollute the log) and in
// the shard's own apply order, so for a well-ordered client the log's
// close position matches the live seal exactly. Restore passes nolog:
// its close is already in the log.
func (sh *shard) close(tenant string, nolog bool, touched map[*session]struct{}) error {
	s, ok := sh.sessions[tenant]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	if s.closed {
		return fmt.Errorf("%w: %q", ErrTenantClosed, tenant)
	}
	if sh.cfg.WAL != nil && !nolog {
		if err := sh.cfg.WAL.LogClose(tenant); err != nil {
			return fmt.Errorf("%w: close %q: %v", ErrWAL, tenant, err)
		}
	}
	s.closed = true
	s.publish(sh.cfg.RecordRuns)
	delete(touched, s)
	return nil
}

// apply feeds one submitted batch into its session. Events for unknown,
// closed or failed sessions are dropped (and counted); a leaser error
// marks the session failed and surfaces through every subsequent read.
func (sh *shard) apply(o op, touched map[*session]struct{}) {
	s, ok := sh.sessions[o.tenant]
	if !ok || s.failed || s.closed {
		sh.dropped.Add(int64(len(o.events)))
		return
	}
	for i, ev := range o.events {
		d, err := s.rec.Observe(s.leaser, ev)
		if err != nil {
			s.failed = true
			s.err = fmt.Errorf("engine: tenant %q: %w", o.tenant, err)
			touched[s] = struct{}{}
			sh.dropped.Add(int64(len(o.events) - i))
			return
		}
		sh.events.Add(1)
		sh.addCost(d.Cost)
	}
	touched[s] = struct{}{}
}

// publish refreshes and clears the touched set.
func (sh *shard) publish(touched map[*session]struct{}) {
	for s := range touched {
		s.publish(sh.cfg.RecordRuns)
		delete(touched, s)
	}
}

// addCost accumulates into the float counter; single-writer, so a plain
// load-add-store on the bits is race-free.
func (sh *shard) addCost(c float64) {
	sh.costBits.Store(math.Float64bits(math.Float64frombits(sh.costBits.Load()) + c))
}

func (sh *shard) metrics() ShardMetrics {
	return ShardMetrics{
		Shard:      sh.id,
		Sessions:   len(*sh.reg.Load()),
		Events:     sh.events.Load(),
		Batches:    sh.batches.Load(),
		Dropped:    sh.dropped.Load(),
		QueueDepth: len(sh.queue),
		Cost:       math.Float64frombits(sh.costBits.Load()),
	}
}
