package main

// The fleet a run drives, built from the run's target and WAL axes,
// and the -kill fault: every run opens, produces, flushes, measures,
// verifies and drains through the same methods whatever the fleet is.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"leasing"
	"leasing/internal/stats"
)

// fleet is what a run drives: the in-process engine (-nodes 0), or
// daemons reached through the ring-routing cluster client, which sends
// everything to the one member when there is one.
type fleet struct {
	c     *config
	ctx   context.Context
	eng   *leasing.Engine // the in-process engine target
	cli   *leasing.RemoteCluster
	nodes []*node
	down  []func() error // in-process teardown, run in reverse by stop
	acked atomic.Int64   // events acknowledged by submits so far
	// The -kill fault: victim, owning doomed tenants, is SIGKILLed once
	// killAt events are acknowledged; from then on submit errors are
	// expected.
	victim *node
	doomed int
	killAt int64
	dying  atomic.Bool
}

// node is one daemon of a fleet: in-process, a spawned leased process
// (started from args), or the running daemon -addr names.
type node struct {
	url  string
	cli  *leasing.RemoteClient // health and metrics
	ship func() error          // an in-process replicated node's shipper close
	args []string              // the leased command line, binary first
	cmd  *exec.Cmd             // the live process, nil once reaped
}

// measure builds a fresh fleet, opens ts on it, produces every stream,
// flushes and measures — killing and recovering a node on the way under
// -kill — then verifies every tenant under -verify and drains the fleet,
// which must stop cleanly. It fills the report's totals, rate, latency
// and engine counters.
func measure(report *jsonReport, ts []*tenant, c *config) error {
	f, err := startFleet(c)
	if err != nil {
		return err
	}
	defer f.stop(os.Kill)
	var total int64
	for _, t := range ts {
		if err := f.open(t); err != nil {
			return fmt.Errorf("open %s: %w", t.name, err)
		}
		total += int64(len(t.events))
	}
	if c.kill {
		if err := f.armKill(ts, max(total/2, 1)); err != nil {
			return err
		}
	}
	res := stats.NewReservoir(latReservoirCap, c.seed)
	// Collect the garbage of tenant synthesis now, so no collection of it
	// lands in the timed window.
	runtime.GC()
	start, err := f.produce(ts, res)
	if err != nil {
		return err
	}
	if c.kill {
		if err := f.recover(ts); err != nil {
			return err
		}
	}
	if err := f.flush(ts); err != nil {
		return err
	}
	// Elapsed spans submission AND the flush barrier, so events still
	// queued on shards when producers finish are not counted as done —
	// the semantics every committed BENCH_PR*.json was measured with.
	elapsed := time.Since(start)
	if report.Engine, err = f.metrics(); err != nil {
		return err
	}
	if c.verify {
		bad := 0
		for _, t := range ts {
			if err := f.verify(t); err != nil {
				fmt.Fprintf(os.Stderr, "leaseload: verify %s: %v\n", t.name, err)
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d of %d tenants diverged from Replay of their streams", bad, len(ts))
		}
		report.Verified = &c.verify
	}
	if err := f.stop(syscall.SIGTERM); err != nil {
		return err
	}
	// Every stream was submitted whole: a failed submit ends the run, and
	// under -kill the resume submitted what the victim lost.
	qs := res.Quantiles(0.50, 0.90, 0.99)
	report.TotalEvents = total
	report.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	report.EventsPerSec = float64(total) / elapsed.Seconds()
	report.SubmitLatencyUS = latencyStats{P50: qs[0], P90: qs[1], P99: qs[2], Max: res.Max()}
	if c.addr != "" {
		// The daemon owns its engine and log configuration: report the
		// shard count it actually runs (visible in its metrics) and zero
		// the knobs the load generator cannot observe.
		report.Shards = len(report.Engine.Shards)
		report.Batch, report.Queue, report.WAL = 0, 0, ""
	}
	return nil
}

// startFleet builds the fleet the target and WAL axes name, wiring
// in-process daemons the way cmd/leased wires its flags.
func startFleet(c *config) (f *fleet, err error) {
	f = &fleet{c: c, ctx: context.Background()}
	defer func() {
		if err != nil {
			f.stop(os.Kill)
		}
	}()
	root := ""
	if c.wal != "off" {
		if root, err = os.MkdirTemp("", "leaseload-*"); err != nil {
			return nil, err
		}
		f.down = append(f.down, func() error { return os.RemoveAll(root) })
	}
	logOpts := leasing.DurableLogOptions{Fsync: c.wal == "fsync"}
	ecfg := leasing.EngineConfig{Shards: c.shards, QueueDepth: c.queue, BatchSize: c.batch, RecordRuns: c.verify}
	if c.nodes == 0 {
		if root != "" {
			wlog, err := leasing.OpenDurableLog(root, logOpts)
			if err != nil {
				return nil, err
			}
			f.down = append(f.down, wlog.Close)
			// Assigned only when non-nil: a typed nil pointer in the WAL
			// interface field would read as a configured WAL.
			ecfg.WAL = wlog
		}
		f.eng = leasing.NewEngine(ecfg)
		f.down = append(f.down, f.eng.Close)
		return f, nil
	}

	urls := []string{c.addr}
	var lns []net.Listener
	if c.addr == "" {
		urls = make([]string, c.nodes)
		for i := range urls {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			// Closing twice is harmless: a served listener's server or a
			// spawned node's release closes it first.
			f.down = append(f.down, func() error { ln.Close(); return nil })
			lns = append(lns, ln)
			urls[i] = "http://" + ln.Addr().String()
		}
	}
	for i, url := range urls {
		nd := &node{url: url, cli: leasing.Dial(url, leasing.RemoteClientOptions{})}
		f.nodes = append(f.nodes, nd)
		dir := ""
		if root != "" {
			dir = filepath.Join(root, strconv.Itoa(i))
		}
		switch {
		case c.leased != "":
			// The spawned daemon binds the port itself; the race between
			// release and reuse is acceptable for a load generator.
			lns[i].Close()
			nd.args = leasedArgs(c, url, urls, dir)
			err = nd.start()
		case c.addr == "":
			err = f.serve(nd, lns[i], urls, dir, ecfg, logOpts)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, nd := range f.nodes {
		if err = waitHealthy(f.ctx, nd.cli, 15*time.Second); err != nil {
			return nil, fmt.Errorf("node %s: %w", nd.url, err)
		}
	}
	if f.cli, err = leasing.DialCluster(urls, leasing.RemoteClientOptions{Chunk: c.chunk, Binary: c.binary}); err != nil {
		return nil, err
	}
	return f, nil
}

// serve starts nd in-process on ln: an engine, with a WAL under dir
// when dir is set, and — among two or more peers — a follower log, a
// shipper and the replicated WAL, torn down in cmd/leased's drain order
// (server, engine, shipper, follower, log).
func (f *fleet) serve(nd *node, ln net.Listener, peers []string, dir string, ecfg leasing.EngineConfig, logOpts leasing.DurableLogOptions) error {
	var eng *leasing.Engine
	var scfg leasing.LeaseServerConfig
	if dir == "" {
		eng = leasing.NewEngine(ecfg)
	} else {
		own, err := leasing.OpenDurableLog(dir, logOpts)
		if err != nil {
			return err
		}
		f.down = append(f.down, own.Close)
		scfg.WALStats = own.Stats
		var ewal leasing.EngineWAL = own
		if len(peers) > 1 {
			follow, err := leasing.OpenDurableLog(filepath.Join(dir, "follower"), logOpts)
			if err != nil {
				return err
			}
			f.down = append(f.down, follow.Close)
			sh, err := leasing.NewClusterShipper(nd.url, peers, leasing.ClusterShipperOptions{})
			if err != nil {
				return err
			}
			f.down = append(f.down, func() error { sh.Close(); return nil })
			// Closing flushes every record to its replica; stop does it
			// for all nodes while every peer still serves.
			nd.ship = func() error {
				sh.Close()
				if st := sh.Stats(); len(st.FailedPeers) > 0 {
					return fmt.Errorf("node %s failed peers %v (%d records dropped)", nd.url, st.FailedPeers, st.Dropped)
				}
				return nil
			}
			rl := leasing.ReplicateDurableLog(own, sh)
			ewal = rl
			scfg.Cluster = &leasing.LeaseClusterConfig{
				Self: nd.url, Peers: peers, Follower: follow, WAL: rl, ShipperStats: sh.Stats,
			}
		}
		if eng, _, err = leasing.RecoverEngineWAL(own, ewal, ecfg); err != nil {
			return err
		}
	}
	srv := &http.Server{Handler: leasing.Serve(eng, scfg)}
	go srv.Serve(ln)
	f.down = append(f.down, eng.Close, srv.Close)
	return nil
}

// leasedArgs is one spawned daemon's command line: the flags the
// in-process nodes mirror.
func leasedArgs(c *config, self string, peers []string, dir string) []string {
	args := []string{c.leased, "-addr", strings.TrimPrefix(self, "http://"),
		"-shards", strconv.Itoa(c.shards), "-queue", strconv.Itoa(c.queue), "-batch", strconv.Itoa(c.batch)}
	if c.verify {
		args = append(args, "-record")
	}
	if dir != "" {
		args = append(args, "-data-dir", dir)
	}
	if c.wal == "fsync" {
		args = append(args, "-fsync")
	}
	if len(peers) > 1 {
		args = append(args, "-peers", strings.Join(peers, ","), "-self", self)
	}
	return args
}

// start spawns the node's leased process.
func (nd *node) start() error {
	cmd := exec.Command(nd.args[0], nd.args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s as %s: %w", nd.args[0], nd.url, err)
	}
	nd.cmd = cmd
	return nil
}

// waitHealthy polls a daemon's liveness probe until it answers.
func waitHealthy(ctx context.Context, cli *leasing.RemoteClient, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := cli.Health(ctx); err == nil {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy within %v", timeout)
}

// open opens a tenant session: on the in-process engine with a leaser
// built from its spec (the spec is logged under -wal, so recovery can
// rebuild it), on a daemon from the spec itself.
func (f *fleet) open(t *tenant) error {
	if f.eng != nil {
		lsr, err := t.spec.Build()
		if err != nil {
			return err
		}
		spec, err := leasing.WireOpenSpec(t.spec)
		if err != nil {
			return err
		}
		return f.eng.OpenSpec(t.name, lsr, spec)
	}
	if t.wevs == nil {
		wevs, err := leasing.WireEvents(t.events)
		if err != nil {
			return err
		}
		t.wevs = wevs
	}
	return f.cli.Open(f.ctx, t.name, t.spec)
}

// submit sends the tenant's events [lo:hi).
func (f *fleet) submit(t *tenant, lo, hi int) error {
	if f.eng != nil {
		return f.eng.SubmitBatch(t.name, t.events[lo:hi])
	}
	_, err := f.cli.Submit(f.ctx, t.name, t.wevs[lo:hi])
	return err
}

// flush is the run's barrier: once it returns, every engine has
// applied everything acknowledged. A daemon's flush is engine-wide, so
// it takes one per owning node.
func (f *fleet) flush(ts []*tenant) error {
	if f.eng != nil {
		return f.eng.Flush()
	}
	flushed := map[string]bool{}
	for _, t := range ts {
		if owner := f.cli.Owner(t.name); !flushed[owner] {
			flushed[owner] = true
			if err := f.cli.Flush(f.ctx, t.name); err != nil {
				return fmt.Errorf("flush %s: %w", owner, err)
			}
		}
	}
	return nil
}

// metrics samples the engine counters, summed over a fleet's live nodes.
func (f *fleet) metrics() (leasing.EngineMetrics, error) {
	if f.eng != nil {
		return f.eng.Metrics(), nil
	}
	var sum leasing.EngineMetrics
	for _, nd := range f.nodes {
		wm, err := nd.cli.Metrics(f.ctx)
		if err != nil {
			return sum, fmt.Errorf("metrics of %s: %w", nd.url, err)
		}
		m := wm.Engine()
		sum.Shards = append(sum.Shards, m.Shards...)
		sum.Sessions += m.Sessions
		sum.Events += m.Events
		sum.Batches += m.Batches
		sum.Dropped += m.Dropped
		sum.QueueDepth += m.QueueDepth
		sum.Cost += m.Cost
	}
	return sum, nil
}

// served is what a fleet reports for one tenant.
type served struct {
	run    *leasing.StreamRun
	cost   leasing.CostBreakdown
	snap   leasing.Solution
	events int64 // the count closing the session reports
}

// verify holds a served tenant to the determinism anchor: its recorded
// run, cost and snapshot must equal a single-threaded Replay of a
// leaser built from its own spec, and closing the session must report
// its whole stream.
func (f *fleet) verify(t *tenant) error {
	ref, err := t.spec.Build()
	if err != nil {
		return err
	}
	want, err := leasing.Replay(ref, t.events)
	if err != nil {
		return err
	}
	got, err := f.read(t.name)
	switch {
	case err != nil:
		return err
	case fmt.Sprintf("%#v", got.run) != fmt.Sprintf("%#v", want):
		return errors.New("recorded run differs from Replay")
	case got.cost != want.Final:
		return fmt.Errorf("cost %+v != replay final %+v", got.cost, want.Final)
	case fmt.Sprintf("%#v", got.snap) != fmt.Sprintf("%#v", ref.Snapshot()):
		return errors.New("snapshot differs from replay snapshot")
	case got.events != int64(len(t.events)):
		return fmt.Errorf("close reports %d events, submitted %d", got.events, len(t.events))
	}
	return nil
}

// read fetches a tenant's run, cost and snapshot, then closes the
// session for its final event count.
func (f *fleet) read(name string) (s served, err error) {
	if f.eng != nil {
		if s.run, err = f.eng.Result(name); err != nil {
			return s, err
		}
		if s.cost, err = f.eng.Cost(name); err != nil {
			return s, err
		}
		if s.snap, err = f.eng.Snapshot(name); err != nil {
			return s, err
		}
		if err = f.eng.CloseTenant(name); err != nil {
			return s, err
		}
		s.events, err = f.eng.Events(name)
		return s, err
	}
	wrun, err := f.cli.Result(f.ctx, name)
	if err != nil {
		return s, err
	}
	cost, err := f.cli.Cost(f.ctx, name)
	if err != nil {
		return s, err
	}
	if cost.Total != cost.Stream().Total() {
		return s, fmt.Errorf("cost total %v disagrees with its breakdown %+v", cost.Total, cost)
	}
	snap, err := f.cli.Snapshot(f.ctx, name)
	if err != nil {
		return s, err
	}
	closed, err := f.cli.Close(f.ctx, name)
	if err != nil {
		return s, err
	}
	return served{run: wrun.Stream(), cost: cost.Stream(), snap: snap.Stream(), events: closed.Events}, nil
}

// armKill aims the -kill fault before producers start: the victim is
// the node owning the most tenants, so the failover moves a meaningful
// share of the fleet, and produce SIGKILLs it once at events are
// acknowledged.
func (f *fleet) armKill(ts []*tenant, at int64) error {
	if len(f.nodes) > 1 {
		// Let the shippers deliver the open records before any node can
		// die: a tenant whose open never reached its replica would have
		// nothing to fail over to. Event records lost the same way are
		// fine — the resume re-sends them.
		time.Sleep(250 * time.Millisecond)
	}
	owned := map[string]int{}
	for _, t := range ts {
		owned[f.cli.Owner(t.name)]++
	}
	f.victim, f.killAt = f.nodes[0], at
	for _, nd := range f.nodes {
		if owned[nd.url] > owned[f.victim.url] {
			f.victim = nd
		}
	}
	if f.doomed = owned[f.victim.url]; f.doomed == 0 {
		return fmt.Errorf("no tenant placed on the victim; widen the tenant set")
	}
	return nil
}

// recover brings the killed victim's tenants back and resumes every
// tenant. A lone node restarts on its data dir; in a cluster the victim
// leaves the live ring, so its tenants route to their replicas, and the
// survivors adopt exactly the sessions it owned. Each tenant's stream
// then resumes from the processed count its (possibly new) owner
// reports after a flush — the authoritative point: the WAL can hold
// events whose acknowledgements died with the victim, and events a
// victim acknowledged but never shipped are gone and must be re-sent.
func (f *fleet) recover(ts []*tenant) error {
	victim := f.victim
	victim.cmd.Wait() // reap; a kill-induced exit error is expected
	victim.cmd = nil
	if len(f.nodes) == 1 {
		if err := victim.start(); err != nil {
			return err
		}
		if err := waitHealthy(f.ctx, victim.cli, 15*time.Second); err != nil {
			return err
		}
	} else {
		f.nodes = slices.DeleteFunc(f.nodes, func(nd *node) bool { return nd == victim })
		if err := f.cli.MarkDown(victim.url); err != nil {
			return err
		}
		activated, err := f.cli.Activate(f.ctx)
		if err != nil {
			return fmt.Errorf("activate failover: %w", err)
		}
		if activated != f.doomed {
			return fmt.Errorf("activated %d sessions, want the victim's %d", activated, f.doomed)
		}
	}
	if err := f.flush(ts); err != nil {
		return err
	}
	for _, t := range ts {
		n, err := f.cli.Processed(f.ctx, t.name)
		if err != nil {
			return fmt.Errorf("recovered count of %s: %w", t.name, err)
		}
		if n > int64(len(t.wevs)) {
			return fmt.Errorf("%s: recovered %d events, only %d were ever submitted", t.name, n, len(t.wevs))
		}
		if _, err := f.cli.SubmitResume(f.ctx, t.name, t.wevs, int(n)); err != nil {
			return fmt.Errorf("resume %s after %d: %w", t.name, n, err)
		}
	}
	return nil
}

// stop shuts the fleet down in order and reports whether every part
// stopped cleanly. Spawned daemons get sig: SIGTERM drains them (a
// clustered one flushing its shipper on the way) and each must then
// exit 0, while os.Kill tears down a failed run. In-process nodes first
// flush their shippers — every one while all peers still serve, and none
// may have failed a peer — then close in the reverse of their start. It
// is safe to call again.
func (f *fleet) stop(sig os.Signal) error {
	var errs []error
	for _, nd := range f.nodes {
		if nd.cmd != nil {
			nd.cmd.Process.Signal(sig)
		}
	}
	for _, nd := range f.nodes {
		if nd.cmd != nil {
			if err := nd.cmd.Wait(); err != nil {
				errs = append(errs, fmt.Errorf("node %s did not drain cleanly: %w", nd.url, err))
			}
			nd.cmd = nil
		}
		if nd.ship != nil {
			errs = append(errs, nd.ship())
			nd.ship = nil
		}
	}
	for i := len(f.down) - 1; i >= 0; i-- {
		errs = append(errs, f.down[i]())
	}
	f.down = nil
	return errors.Join(errs...)
}
