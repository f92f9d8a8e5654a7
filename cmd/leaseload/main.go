// Command leaseload is the load generator for the multi-tenant lease
// serving stack: it synthesizes mixed-domain tenant traffic (parking
// days, deadlines, set-cover elements, facility batches, Steiner
// connects, reusable-pool uses — one domain per tenant, streams drawn
// from internal/workload), pumps it through a fleet from concurrent
// producers, and reports sustained throughput plus submit-latency
// percentiles. With -verify every tenant's served run, cost and
// snapshot are then checked byte-identical to a single-threaded Replay
// of its stream. Like leasebench, -json emits a machine-readable report
// (committed snapshots are named BENCH_*.json; see the README's
// trajectory convention).
//
// Every run is a fixed amount of work: each tenant's whole stream,
// drawn from Bernoulli(0.5) arrivals and deterministic in -seed, is
// submitted once. The run is one code path over three axes:
//
//   - Target. -nodes 0, the default, drives the in-process engine.
//     -nodes N starts N loopback daemons wired the way cmd/leased wires
//     them, two or more joined by -peers replication. -addr drives one
//     already-running daemon instead (it must run with -record for
//     -verify), and -leased spawns the N daemons as processes of a
//     built leased binary. Daemons are driven through the ring-routing
//     cluster client; -binary makes it submit over the
//     application/x-lease-binary framing (reads stay JSON).
//   - Durability. -wal off|nosync|fsync gives every engine a
//     write-ahead log, without or with an fsync before each
//     acknowledgement.
//   - Fault. -kill SIGKILLs the spawned node owning the most tenants
//     once half the events are acknowledged. A lone node restarts on its
//     data dir; in a cluster its tenants fail over to their replicas
//     (MarkDown + Activate). Every tenant then resumes from its
//     processed count and is verified against Replay.
//
// An axis combination that cannot run is one up-front error. The
// report's mode is a label derived from the axes. With -gate the run is
// compared against a committed BENCH_*.json snapshot of the same mode
// and fails on regression beyond -gate-tolerance — the CI perf gate.
// The submit latency times each submit call, which on the in-process
// engine is the enqueue only; servebench measures submit-to-applied
// latency.
//
// Usage:
//
//	leaseload -tenants 64 -events 256 -shards 8 -batch 64 -queue 256 -producers 4
//	leaseload -verify                           # parity-check tenants vs Replay
//	leaseload -nodes 1 [-binary] [-verify]      # one loopback daemon over HTTP
//	leaseload -addr http://host:8080 [-verify]  # a running daemon
//	leaseload -wal fsync [-cpuprofile cpu.out]  # a durable in-process engine
//	leaseload -nodes 4 -wal nosync              # a replicated 4-node fleet
//	leaseload -leased ./leased -nodes 3 -wal fsync -kill   # kill-one-node drill
//	leaseload -json -gate BENCH_PR3.json [-gate-tolerance 0.15]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"leasing"
	"leasing/internal/benchgate"
	"leasing/internal/sim"
	"leasing/internal/stats"
	"leasing/internal/wire"
	"leasing/internal/workload"
)

// latReservoirCap bounds the submit-latency sample: produce records
// every call into a fixed-size reservoir (Vitter's algorithm R), so
// memory stays flat however long a run submits.
const latReservoirCap = 4096

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "leaseload:", err)
		os.Exit(1)
	}
}

// tenant is one synthetic session: a name, its fixed event stream, and
// the wire spec that opens it — on a daemon, and (built into a leaser)
// on the in-process engine and for the reference Replay.
type tenant struct {
	name   string
	events []leasing.Event
	spec   leasing.RemoteOpenRequest
	wevs   []leasing.RemoteEvent // events in wire form, set when opened on a daemon
}

type latencyStats struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// jsonReport is the machine-readable format, the leaseload counterpart
// of leasebench's report: the axes, configuration, throughput, latency,
// and the engines' own per-shard counters (summed over a fleet's live
// nodes). On daemons the latency percentiles include the network round
// trip and any backpressure retries.
type jsonReport struct {
	Tool            string                `json:"tool"`
	Mode            string                `json:"mode"`
	Nodes           int                   `json:"nodes"`
	WAL             string                `json:"wal,omitempty"`
	Kill            bool                  `json:"kill"`
	GoVersion       string                `json:"go_version"`
	Seed            int64                 `json:"seed"`
	Tenants         int                   `json:"tenants"`
	Domains         map[string]int        `json:"domains"`
	TotalEvents     int64                 `json:"total_events"`
	Shards          int                   `json:"shards"`
	Batch           int                   `json:"batch"`
	Queue           int                   `json:"queue"`
	Producers       int                   `json:"producers"`
	Chunk           int                   `json:"chunk"`
	Encoding        string                `json:"encoding,omitempty"`
	ElapsedMS       float64               `json:"elapsed_ms"`
	EventsPerSec    float64               `json:"events_per_sec"`
	SubmitLatencyUS latencyStats          `json:"submit_latency_us"`
	Engine          leasing.EngineMetrics `json:"engine"`
	Verified        *bool                 `json:"verified,omitempty"`
}

// config is one run's axes and knobs, as parsed from the flags.
type config struct {
	tenants, events, shards, batch, queue, producers, chunk int
	seed                                                    int64
	verify, binary, kill                                    bool
	addr, leased, wal, gate                                 string
	nodes                                                   int
}

// check rejects, up front, flag values and axis combinations that
// cannot run; set names the flags given explicitly.
func (c *config) check(set map[string]bool) error {
	for _, r := range []struct {
		bad bool
		msg string
	}{
		{c.tenants < 1 || c.events < 1 || c.producers < 1 || c.chunk < 1, "-tenants, -events, -producers and -chunk must be >= 1"},
		// The engine would silently substitute defaults for these; reject
		// them instead so the report never misstates the measured config.
		{c.shards < 1 || c.batch < 1 || c.queue < 1, "-shards, -batch and -queue must be >= 1"},
		{c.nodes < 0, "-nodes must be >= 0"},
		{!slices.Contains([]string{"off", "nosync", "fsync"}, c.wal), "-wal must be off, nosync or fsync"},
		{c.addr != "" && (c.nodes > 1 || c.leased != ""), "-addr drives one running daemon; it cannot be combined with -nodes > 1 or -leased"},
		// A running daemon's engine and log are configured by the daemon;
		// local values would misstate the measured setup.
		{c.addr != "" && (set["shards"] || set["batch"] || set["queue"] || set["wal"]), "-shards, -batch, -queue and -wal are set by the daemon; they cannot be combined with -addr"},
		{c.leased != "" && c.nodes < 1, "-leased spawns -nodes daemons; it needs -nodes >= 1"},
		{c.nodes > 1 && c.wal == "off", "-nodes >= 2 replicates the write-ahead log; it needs -wal nosync or fsync"},
		{c.binary && c.nodes == 0 && c.addr == "", "-binary is a wire framing; it needs -nodes >= 1 or -addr"},
		{c.kill && (c.leased == "" || c.wal == "off"), "-kill SIGKILLs a spawned durable daemon; it needs -leased and -wal nosync or fsync"},
		{c.gate == "" && set["gate-tolerance"], "-gate-tolerance requires -gate"},
	} {
		if r.bad {
			return errors.New(r.msg)
		}
	}
	return nil
}

// mode names the run's target, WAL and fault axes for the report and
// the perf gate, which refuses to compare different modes. The
// in-process engine is the unnamed default target, so the
// configurations of the committed snapshots keep their labels: "engine"
// (BENCH_PR3.json) and "remote" (BENCH_PR4.json, BENCH_PR7.json).
func (c *config) mode() string {
	var parts []string
	switch {
	case c.leased != "":
		parts = append(parts, fmt.Sprintf("leased%d", c.nodes))
	case c.nodes > 1:
		parts = append(parts, fmt.Sprintf("cluster%d", c.nodes))
	case c.nodes == 1:
		parts = append(parts, "remote")
	}
	if c.wal != "off" {
		parts = append(parts, "wal-"+c.wal)
	}
	if c.kill {
		parts = append(parts, "kill")
	}
	if len(parts) == 0 {
		return "engine"
	}
	return strings.Join(parts, "-")
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("leaseload", flag.ContinueOnError)
	var c config
	fs.IntVar(&c.tenants, "tenants", 64, "number of concurrent tenant sessions (domains cycle per tenant)")
	fs.IntVar(&c.events, "events", 256, "target events per tenant (streams are stochastic, so counts vary around this)")
	fs.IntVar(&c.shards, "shards", 8, "engine shards")
	fs.IntVar(&c.batch, "batch", 64, "engine batch size (events drained per shard wake)")
	fs.IntVar(&c.queue, "queue", 256, "engine per-shard queue depth (backpressure)")
	fs.IntVar(&c.producers, "producers", 4, "concurrent producer goroutines (tenants are partitioned across them)")
	fs.IntVar(&c.chunk, "chunk", 32, "events per submit call (per HTTP submit on daemons)")
	fs.Int64Var(&c.seed, "seed", 2015, "base random seed for workload synthesis")
	fs.BoolVar(&c.verify, "verify", false, "after the run, check every tenant byte-identical to a single-threaded Replay")
	fs.IntVar(&c.nodes, "nodes", 0, "target: 0 drives the in-process engine; N >= 1 starts N loopback daemons, replicated through a cluster client when N >= 2")
	fs.StringVar(&c.addr, "addr", "", "target: base URL of one running leased daemon, instead of starting any")
	fs.StringVar(&c.leased, "leased", "", "target: spawn the -nodes daemons as processes of this built leased binary")
	fs.BoolVar(&c.binary, "binary", false, "on daemons: submit events over the binary wire framing (application/x-lease-binary) instead of JSON; reads stay JSON")
	fs.StringVar(&c.wal, "wal", "off", "durability of every engine: off, nosync (write-ahead log without fsync) or fsync (fsync before acknowledging)")
	fs.BoolVar(&c.kill, "kill", false, "fault: SIGKILL the spawned node owning the most tenants once half the events are acknowledged, restart it (one node) or fail its tenants over (a cluster), resume every tenant and verify it against Replay")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report")
	outPath := fs.String("out", "", "with -json: write the report to this file instead of stdout")
	domainsFl := fs.String("domains", "days,deadline,elements,facility,steiner", "comma-separated domain mix tenants cycle through (any subset; 'days' alone makes the cheapest per-event apply, so the run measures the ingestion path rather than the algorithms)")
	fs.StringVar(&c.gate, "gate", "", "compare the run against this committed BENCH_*.json snapshot (same tool and mode) and fail on regression beyond -gate-tolerance")
	gateTol := fs.Float64("gate-tolerance", 0.15, "with -gate: allowed fractional regression before the gate fails")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := c.check(set); err != nil {
		return err
	}
	domainMix, err := domainList(*domainsFl)
	if err != nil {
		return err
	}
	if c.addr != "" {
		c.nodes = 1
	}
	// The kill drill is defined by its verification.
	c.verify = c.verify || c.kill

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := leasing.PowerLeaseConfig(3, 4, 0.55)
	ts := make([]*tenant, c.tenants)
	domains := map[string]int{}
	for i := range ts {
		domain := domainMix[i%len(domainMix)]
		if ts[i], err = buildTenant(i, domain, cfg, sim.TrialSeed(c.seed, i), c.events); err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
		domains[domain]++
	}

	report := jsonReport{
		Tool:      "leaseload",
		Mode:      c.mode(),
		Nodes:     c.nodes,
		WAL:       c.wal,
		Kill:      c.kill,
		GoVersion: runtime.Version(),
		Seed:      c.seed,
		Tenants:   c.tenants,
		Domains:   domains,
		Shards:    c.shards,
		Batch:     c.batch,
		Queue:     c.queue,
		Producers: c.producers,
		Chunk:     c.chunk,
	}
	if c.nodes > 0 {
		report.Encoding = "json"
		if c.binary {
			report.Encoding = "binary"
		}
	}
	if err := measure(&report, ts, &c); err != nil {
		return err
	}

	if *jsonOut {
		if err := writeJSON(report, *outPath, w); err != nil {
			return err
		}
	} else {
		printText(w, report)
	}
	return gateCheck(report, c.gate, *gateTol, w)
}

// produce partitions tenants across -producers goroutines; each
// producer round-robins its tenants in -chunk slices so shard queues see
// interleaved multi-tenant traffic, and records the latency of every
// submit call (which includes any backpressure stall or retry) into res
// — a fixed-size reservoir, so the sample's memory is bounded no matter
// how long the run submits. Acknowledged events are counted in f.acked,
// and under -kill the submit that crosses f.killAt SIGKILLs the victim.
// It returns the submission start time, so callers can measure elapsed
// across their flush barrier, and the first submit error: a failed
// producer stops, and the run is reported as failed rather than as a
// silently partial success — unless the error came after the kill,
// which is the point.
func (f *fleet) produce(ts []*tenant, res *stats.Reservoir) (time.Time, error) {
	producers, chunk := f.c.producers, f.c.chunk
	errs := make([]error, producers)
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Every live tenant advances one chunk per round.
			for lo, live := 0, true; live; lo += chunk {
				live = false
				for i := p; i < len(ts); i += producers {
					t := ts[i]
					if lo >= len(t.events) {
						continue
					}
					hi := min(lo+chunk, len(t.events))
					t0 := time.Now()
					if err := f.submit(t, lo, hi); err != nil {
						if !f.dying.Load() {
							errs[p] = fmt.Errorf("producer %d: %s events [%d:%d): %w", p, t.name, lo, hi, err)
						}
						return
					}
					res.Add(float64(time.Since(t0).Nanoseconds()) / 1e3)
					acked := f.acked.Add(int64(hi - lo))
					if f.victim != nil && acked >= f.killAt && f.dying.CompareAndSwap(false, true) {
						f.victim.cmd.Process.Kill()
					}
					live = live || hi < len(t.events)
				}
			}
		}(p)
	}
	wg.Wait()
	return start, errors.Join(errs...)
}

// gateCheck runs the perf-regression gate when -gate is set: the just-
// measured report is compared against the committed snapshot and the
// run fails on regression beyond the tolerance.
func gateCheck(report jsonReport, gatePath string, tolerance float64, w io.Writer) error {
	if gatePath == "" {
		return nil
	}
	measured, ref, err := benchgate.GateReport(report, gatePath, tolerance)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "gate:    ok, events_per_sec %.1f vs %s %.1f (tolerance %.0f%%)\n",
		measured.Value, gatePath, ref.Value, 100*tolerance)
	return nil
}

// domainOrder is the full domain cycle, in the order tenants have
// always been assigned to it; -domains picks a subset.
var domainOrder = []string{"days", "deadline", "elements", "facility", "steiner", "reusable"}

// domainList parses and validates the -domains list.
func domainList(list string) ([]string, error) {
	names := strings.Split(list, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if !slices.Contains(domainOrder, names[i]) {
			return nil, fmt.Errorf("-domains: unknown domain %q (choose from %s)", names[i], strings.Join(domainOrder, ", "))
		}
	}
	return names, nil
}

// buildTenant synthesizes one tenant's event stream and wire spec in
// the given domain. All randomness flows from tseed, so a tenant is
// reproducible independent of the others. Demand arrives with
// probability 0.5 on each of the horizon's 2·events steps, so a tenant
// lands near the requested event count.
func buildTenant(i int, domain string, cfg *leasing.LeaseConfig, tseed int64, events int) (*tenant, error) {
	rng := rand.New(rand.NewSource(tseed))
	horizon := int64(2 * events)
	arr := &workload.Constant{P: 0.5}
	t := &tenant{
		name: fmt.Sprintf("t%04d-%s", i, domain),
		spec: leasing.RemoteOpenRequest{Types: leasing.WireLeaseTypes(cfg)},
	}
	switch domain {
	case "days":
		t.events = leasing.DayEvents(workload.ArrivalDays(rng, horizon, arr))
		t.spec.Domain = wire.DomainParking

	case "deadline":
		t.events = leasing.WindowEvents(workload.DeadlineArrivals(rng, horizon, arr, 12))
		t.spec.Domain = wire.DomainDeadline

	case "elements":
		const n, m, delta = 32, 20, 3
		zipf, err := workload.NewZipf(rng, n, 1.5)
		if err != nil {
			return nil, err
		}
		arrivals := workload.ElementArrivals(rng, horizon, arr,
			zipf.Draw, func() int { return 1 + rng.Intn(2) })
		fam, err := leasing.RandomSetFamily(rng, n, m, delta)
		if err != nil {
			return nil, err
		}
		costs := leasing.RandomSetCosts(rng, m, cfg, 0.5)
		sets := make([][]int, fam.M())
		for s := range sets {
			sets[s] = fam.Set(s)
		}
		warr := make([]wire.ElementArrival, len(arrivals))
		for j, a := range arrivals {
			warr[j] = wire.ElementArrival{T: a.T, Elem: a.Elem, P: a.P}
		}
		t.events = leasing.ElementEvents(arrivals)
		t.spec.Domain, t.spec.Seed = wire.DomainSetCover, tseed+1
		t.spec.SetCover = &wire.SetCoverSpec{Elements: n, Sets: sets, Costs: costs, Arrivals: warr}

	case "facility":
		// Client batches clustered around a handful of sites; one Batch
		// event per step (empty steps included, as in stream.Batches).
		const sitesN = 6
		sites := make([]wire.Point, sitesN)
		for s := range sites {
			sites[s] = wire.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		facCosts := make([][]float64, sitesN)
		for s := range facCosts {
			row := make([]float64, cfg.K())
			f := 1 + rng.Float64()*0.5
			for k := range row {
				row[k] = cfg.Cost(k) * f
			}
			facCosts[s] = row
		}
		// Steps are halved so a facility tenant lands near the same event
		// count as the others while still exercising multi-client steps.
		batches := make([][]leasing.Point, events/2+1)
		wbatches := make([][]wire.Point, len(batches))
		for step := range batches {
			for c := rng.Intn(3); c > 0; c-- {
				s := sites[rng.Intn(sitesN)]
				p := leasing.Point{X: s.X + rng.Float64()*4, Y: s.Y + rng.Float64()*4}
				batches[step] = append(batches[step], p)
				wbatches[step] = append(wbatches[step], wire.Point{X: p.X, Y: p.Y})
			}
		}
		t.events = leasing.BatchEvents(batches)
		t.spec.Domain = wire.DomainFacility
		t.spec.Facility = &wire.FacilitySpec{Sites: sites, Costs: facCosts, Batches: wbatches}

	case "reusable":
		// Reusable-resource pool: usage durations uniform in [1, 8],
		// capacity sized so both grants and whole-pool-busy rejections
		// occur.
		days := workload.ArrivalDays(rng, horizon, arr)
		reqs := make([]leasing.ReusableRequest, len(days))
		for j, d := range days {
			reqs[j] = leasing.ReusableRequest{T: d, Dur: 1 + int64(rng.Intn(8))}
		}
		t.events = leasing.UseEvents(reqs)
		t.spec.Domain = wire.DomainReusable
		t.spec.Reusable = &wire.ReusableSpec{Capacity: 4}

	default: // steiner
		const terminals = 16
		g, err := leasing.RandomConnectedGraph(rng, terminals, 3*terminals, 1, 10)
		if err != nil {
			return nil, err
		}
		connects, err := workload.ConnectArrivals(rng, horizon, arr, terminals)
		if err != nil {
			return nil, err
		}
		reqs := make([]leasing.SteinerRequest, len(connects))
		wreqs := make([]wire.ConnectRequest, len(connects))
		for j, c := range connects {
			reqs[j] = leasing.SteinerRequest{Time: c.T, S: c.S, T: c.U}
			wreqs[j] = wire.ConnectRequest{T: c.T, S: c.S, U: c.U}
		}
		edges := make([]wire.Edge, g.M())
		for j, e := range g.Edges() {
			edges[j] = wire.Edge{U: e.U, V: e.V, W: e.Weight}
		}
		t.events = leasing.ConnectEvents(reqs)
		t.spec.Domain = wire.DomainSteiner
		t.spec.Steiner = &wire.SteinerSpec{Vertices: terminals, Edges: edges, Requests: wreqs}
	}
	return t, nil
}

// writeJSON encodes report to w, or to outPath when it is set, in which
// case w gets one line naming the file once it is closed.
func writeJSON(report any, outPath string, w io.Writer) error {
	out := w
	var f *os.File
	if outPath != "" {
		var err error
		if f, err = os.Create(outPath); err != nil {
			return err
		}
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err := enc.Encode(report)
	if f == nil {
		return err
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "leaseload: wrote %s\n", outPath)
	return nil
}

func printText(w io.Writer, r jsonReport) {
	fmt.Fprintf(w, "mode:    %s (nodes=%d wal=%s", r.Mode, r.Nodes, r.WAL)
	if r.Encoding != "" {
		fmt.Fprintf(w, ", %s encoding", r.Encoding)
	}
	fmt.Fprintln(w, ")")
	var mix []string
	for _, d := range domainOrder {
		if n, ok := r.Domains[d]; ok {
			mix = append(mix, fmt.Sprintf("%s %d", d, n))
		}
	}
	fmt.Fprintf(w, "tenants: %d (%s)\n", r.Tenants, strings.Join(mix, ", "))
	fmt.Fprintf(w, "engine:  shards=%d batch=%d queue=%d producers=%d chunk=%d\n",
		r.Shards, r.Batch, r.Queue, r.Producers, r.Chunk)
	fmt.Fprintf(w, "events:  %d in %.1fms  (%.0f events/s)\n",
		r.TotalEvents, r.ElapsedMS, r.EventsPerSec)
	fmt.Fprintf(w, "submit latency µs: p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
		r.SubmitLatencyUS.P50, r.SubmitLatencyUS.P90, r.SubmitLatencyUS.P99, r.SubmitLatencyUS.Max)
	fmt.Fprintf(w, "shards:  %d batches (%.1f events/batch avg), dropped %d, total cost %.2f\n",
		r.Engine.Batches, float64(r.Engine.Events)/float64(max(r.Engine.Batches, 1)), r.Engine.Dropped, r.Engine.Cost)
	if r.Verified != nil {
		fmt.Fprintf(w, "verified: every tenant byte-identical to single-threaded Replay: %v\n", *r.Verified)
	}
}
