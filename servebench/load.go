package main

// One round of a workload: set up, run the open-loop nominal phase,
// run the saturation phase, check every tenant against Replay, and —
// on the durable workload — close a node and time its recovery.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"leasing"
	"leasing/internal/wire"
)

// producers is the number of load-generating goroutines, and the
// client connections per node.
const producers = 2

// op is one request of the nominal phase's open-loop schedule.
type op struct {
	due    time.Duration // after the phase start
	tenant int
	chunk  int
	read   bool // a snapshot GET instead of the chunk's submit
}

// nominalSchedule lays out the nominal phase for each producer. Chunks
// go round-robin over the tenants at the fixed rate: tenant i's chunk k
// is the phase's (k*tenants+i)-th chunk and is due at that index times
// chunk/rate. A tenant's reads are due half a chunk interval after the
// chunk that completes each readEvery events. Producer p owns the
// tenants with i%producers == p, so each tenant's events stay in order;
// its ops are in due order.
func nominalSchedule(w workload, producers int) [][]op {
	gap := time.Duration(float64(time.Second) * float64(w.chunk) / w.rate)
	out := make([][]op, producers)
	for k := 0; k < w.nominal/w.chunk; k++ {
		for i := 0; i < w.tenants; i++ {
			due := time.Duration(k*w.tenants+i) * gap
			p := i % producers
			out[p] = append(out[p], op{due: due, tenant: i, chunk: k})
			if w.readEvery > 0 && ((k+1)*w.chunk)%w.readEvery == 0 {
				out[p] = append(out[p], op{due: due + gap/2, tenant: i, chunk: k, read: true})
			}
		}
	}
	return out
}

// lateness is how far behind its due time a request went out; a
// request sent early (never, with the sleep before it) counts as on
// time.
func lateness(due, sent time.Duration) time.Duration { return max(sent-due, 0) }

// roundResult is what one round measured.
type roundResult struct {
	traced     bool
	setup      time.Duration
	throughput float64   // saturation events/s
	latencyMS  []float64 // nominal chunks, due to applied
	readMS     []float64 // nominal snapshot reads, due to decoded
	lagMS      []float64 // nominal requests, due to sent
	stateMB    float64
	attempted  int64
	failed     int64

	events     int64 // events submitted in the round
	wakes      int64 // engine processing wakes over the load
	satWindow  int64 // saturation phase, ns
	satBusy    int64 // traced: apply + publish ns inside it
	catchup    time.Duration
	walOpen    time.Duration // durable: recovery halves
	restore    time.Duration
	walAppends int64
	walSyncs   int64
	walBytes   int64
	walEvents  int64
	shipped    int64
	shipPosts  int64
	spans      []span
	layers     layerCounts
}

// layerCounts are a traced round's per-layer counters, copied out of
// its probe so the round's tenants and nodes do not outlive it.
type layerCounts struct {
	submitBytes, submits, backpressured int64
	publishNS, publishes                int64
	applyNS, applyN                     map[string]int64 // by domain
}

func (r roundResult) recovery() time.Duration { return r.walOpen + r.restore }

// runRound runs one round of w on fresh nodes under dataDir.
func runRound(ctx context.Context, w workload, seed int64, refs map[string]reference, dataDir string, epoch time.Time, tr *tracer) (res roundResult, err error) {
	res.traced = tr != nil
	// Every round starts from the same heap: the previous round's nodes
	// and tenants are garbage by now.
	runtime.GC()
	setupStart := time.Now()
	ts, err := synthesize(w, seed)
	if err != nil {
		return res, err
	}
	p := newProbe(epoch, w.chunk, tr, ts, w.domains)
	defer func() {
		res.attempted, res.failed = p.ops.Load(), p.failedOps.Load()
		res.layers = p.counts()
	}()
	dir, err := os.MkdirTemp(dataDir, "round-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	f, err := startFleet(w, dir, p, producers)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := f.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	for _, t := range ts {
		if err := p.open(t.name, func() error { return f.client.Open(ctx, t.name, t.spec) }); err != nil {
			return res, fmt.Errorf("open %s: %w", t.name, err)
		}
	}
	res.setup = time.Since(setupStart)
	heapSetup := liveHeap()
	wakes0 := f.wakes()

	// Nominal phase: open loop at the fixed rate.
	sched := nominalSchedule(w, producers)
	lags, reads := make([][]float64, producers), make([][]float64, producers)
	prods := make([]*producer, producers)
	for i := range prods {
		prods[i] = &producer{cli: f.client, p: p}
	}
	start := p.now()
	err = parallel(producers, func(i int) (err error) {
		lags[i], reads[i], err = prods[i].nominal(ctx, ts, sched[i], start)
		return err
	})
	if err != nil {
		return res, err
	}
	if err := f.flush(); err != nil {
		return res, err
	}
	res.lagMS, res.readMS = slices.Concat(lags...), slices.Concat(reads...)
	for _, ops := range sched {
		for _, o := range ops {
			if !o.read {
				applied := p.runs[ts[o.tenant].name].applied[o.chunk].Load()
				res.latencyMS = append(res.latencyMS, float64(applied-start-int64(o.due))/1e6)
			}
		}
	}

	// Saturation phase: both producers back to back.
	busy0 := p.busy.Load()
	acks := make([]int64, producers)
	satStart := p.now()
	err = parallel(producers, func(i int) (err error) {
		acks[i], err = prods[i].saturate(ctx, ts, i, w)
		return err
	})
	if err != nil {
		return res, err
	}
	// Every record is queued for shipping before its submit is
	// acknowledged, so the shippers' catch-up runs from the last ack,
	// alongside the engines' apply drain rather than after it.
	shipped := make(chan int64, 1)
	if w.durable() {
		go func() {
			f.flushShippers()
			shipped <- p.now()
		}()
	}
	err = f.flush()
	res.satWindow = p.now() - satStart
	if w.durable() {
		res.catchup = time.Duration(<-shipped - slices.Max(acks))
	}
	if err != nil {
		return res, err
	}
	res.satBusy = p.busy.Load() - busy0
	res.throughput = float64(w.tenants*w.saturate) / (float64(res.satWindow) / 1e9)
	res.events = int64(w.tenants * (w.nominal + w.saturate))
	res.wakes = f.wakes() - wakes0
	res.stateMB = float64(liveHeap()-heapSetup) / (1 << 20)

	if err := verifyRemote(ctx, f.client, ts, refs); err != nil {
		return res, err
	}
	if w.durable() {
		if err := res.recoverAndVerify(f, ts, refs); err != nil {
			return res, err
		}
	}
	if tr != nil {
		res.spans = tr.take()
		linkSpans(res.spans)
	}
	return res, nil
}

// parallel runs fn once per producer, each on its own goroutine, and
// waits for all of them.
func parallel(n int, fn func(p int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = fn(p)
		}(p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// producer sends one producer goroutine's requests. It converts each
// chunk to the wire form in a reused buffer just before sending it:
// holding every tenant's stream in the pointer-heavy wire form would
// add tens of MiB to the heap the nodes' garbage collector marks, and
// stretch the collector pauses the latencies see.
type producer struct {
	cli remote
	p   *probe
	buf []leasing.RemoteEvent
}

// nominal sends the producer's nominal ops, each at its due time (or at
// once, when late), and returns the lateness of every request and the
// latency of every read that succeeded, in ms.
func (pr *producer) nominal(ctx context.Context, ts []*tenant, ops []op, start int64) (lags, reads []float64, err error) {
	p := pr.p
	for _, o := range ops {
		due := start + int64(o.due)
		if wait := due - p.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		sent := p.now()
		lags = append(lags, float64(lateness(time.Duration(due), time.Duration(sent)))/1e6)
		t := ts[o.tenant]
		if o.read {
			cctx, end := p.withCall(ctx, "client.read", reqID(t.name, o.chunk))
			_, err := pr.cli.Snapshot(cctx, t.name)
			end()
			p.ops.Add(1)
			if err != nil {
				p.failedOps.Add(1)
				continue
			}
			reads = append(reads, float64(p.now()-due)/1e6)
			continue
		}
		if err := pr.submit(ctx, t, o.chunk); err != nil {
			return lags, reads, err
		}
	}
	return lags, reads, nil
}

// saturate submits producer n's saturation chunks back to back,
// round-robin over its tenants, and returns when its last submit was
// acknowledged.
func (pr *producer) saturate(ctx context.Context, ts []*tenant, n int, w workload) (lastAck int64, err error) {
	first, last := w.nominal/w.chunk, (w.nominal+w.saturate)/w.chunk
	for k := first; k < last; k++ {
		for i := n; i < len(ts); i += producers {
			if err := pr.submit(ctx, ts[i], k); err != nil {
				return lastAck, err
			}
			lastAck = pr.p.now()
		}
	}
	return lastAck, nil
}

// maxResends bounds how often one chunk's unaccepted events are sent
// again after failed requests before the round gives up.
const maxResends = 10

// submit submits chunk k of t in one binary request. A request that
// still fails after the client's own retries counts as failed, and the
// events it left unaccepted go out again in a new request, so the
// tenant's history stays whole and the Replay check still holds.
func (pr *producer) submit(ctx context.Context, t *tenant, k int) error {
	p := pr.p
	lo, hi := k*p.chunk, min((k+1)*p.chunk, len(t.events))
	pr.buf = pr.buf[:0]
	for _, ev := range t.events[lo:hi] {
		wev, err := wire.FromStreamEvent(ev)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		pr.buf = append(pr.buf, wev)
	}
	evs := pr.buf
	for resend := 0; ; resend++ {
		cctx, end := p.withCall(ctx, "client.submit", reqID(t.name, k))
		n, err := pr.cli.Submit(cctx, t.name, evs)
		end()
		p.ops.Add(1)
		if err == nil {
			return nil
		}
		p.failedOps.Add(1)
		if resend == maxResends {
			return fmt.Errorf("submit %s chunk %d: %w", t.name, k, err)
		}
		if evs = evs[n:]; len(evs) == 0 {
			return nil
		}
	}
}

// wakes is the engines' total processing wakes so far.
func (f *fleet) wakes() int64 {
	var n int64
	for _, nd := range f.nodes {
		n += nd.eng.Metrics().Batches
	}
	return n
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// recoverAndVerify ends a durable round: it samples the WAL and shipper
// counters, closes node 0 and times its recovery from its own WAL,
// checks the recovered tenants, then closes node 1 and checks its
// follower-log copy of node 0's tenants.
func (r *roundResult) recoverAndVerify(f *fleet, ts []*tenant, refs map[string]reference) error {
	for _, nd := range f.nodes {
		st := nd.own.Stats()
		r.walAppends += st.Appends
		r.walSyncs += st.Syncs
		sh := nd.sh.Stats()
		r.shipped += sh.Shipped
		r.shipPosts += sh.Batches
	}
	var mine []*tenant
	for _, t := range ts {
		if f.cluster.Owner(t.name) == f.nodes[0].url {
			mine = append(mine, t)
		}
	}
	if len(mine) == 0 {
		return fmt.Errorf("no tenant placed on %s", f.nodes[0].url)
	}
	victim := f.nodes[0]
	if err := victim.stop(); err != nil {
		return err
	}
	for _, t := range mine {
		r.walEvents += int64(len(t.events))
	}
	var err error
	if r.walBytes, err = dirBytes(victim.dir); err != nil {
		return err
	}

	t0 := time.Now()
	log, err := leasing.OpenDurableLog(victim.dir, leasing.DurableLogOptions{Fsync: true})
	if err != nil {
		return err
	}
	r.walOpen = time.Since(t0)
	eng, _, err := leasing.RecoverEngine(log, engineConfig)
	r.restore = time.Since(t0) - r.walOpen
	if err != nil {
		log.Close()
		return err
	}
	err = errors.Join(verifyEngine(eng, mine, refs), eng.Close(), log.Close())
	if err != nil {
		return fmt.Errorf("recovered %s: %w", victim.url, err)
	}

	replica := f.nodes[1]
	if err := replica.stop(); err != nil {
		return err
	}
	flog, err := leasing.OpenDurableLog(filepath.Join(replica.dir, "follower"), leasing.DurableLogOptions{})
	if err != nil {
		return err
	}
	feng, _, err := leasing.RecoverEngine(flog, engineConfig)
	if err != nil {
		flog.Close()
		return err
	}
	err = errors.Join(verifyEngine(feng, mine, refs), feng.Close(), flog.Close())
	if err != nil {
		return fmt.Errorf("follower log of %s: %w", replica.url, err)
	}
	return nil
}
