package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"leasing"
	"leasing/internal/wire"
)

// toy shrinks w to a toy-size run: a twentieth of its tenants (at least
// one per domain) and of each phase's chunks (at least two).
func toy(w workload) workload {
	const f = 0.05
	w.tenants = max(int(float64(w.tenants)*f), len(w.domains))
	chunks := func(n int) int { return max(int(float64(n/w.chunk)*f), 2) * w.chunk }
	w.nominal, w.saturate = chunks(w.nominal), chunks(w.saturate)
	return w
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n       int
		q       float64
		value   float64
		usedQ   float64
		label   string
		shortOf bool
	}{
		// 1000 samples: p99 is rank 990, with exactly 10 above it.
		{n: 1000, q: 0.99, value: 990, usedQ: 0.99, label: "p99 of n=1000"},
		{n: 2000, q: 0.99, value: 1980, usedQ: 0.99, label: "p99 of n=2000"},
		{n: 21, q: 0.50, value: 11, usedQ: 11.0 / 21, label: "p50 of n=21"},
		// 500 samples: p99 would leave 5 above; rank 490 leaves 10.
		{n: 500, q: 0.99, value: 490, usedQ: 0.98, label: "p98 of n=500; too few samples for p99", shortOf: true},
		{n: 15, q: 0.50, value: 5, usedQ: 5.0 / 15, label: "p33.33 of n=15; too few samples for p50", shortOf: true},
		// Ten or fewer samples leave no percentile with ten beyond.
		{n: 10, q: 0.50, value: 10, usedQ: 1, label: "p100 of n=10; too few samples for p50", shortOf: true},
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.q)
		if got.value != c.value || got.n != c.n || got.q != c.usedQ {
			t.Errorf("percentile(n=%d, q=%g) = %+v, want value %g at q %g", c.n, c.q, got, c.value, c.usedQ)
		}
		if beyond := c.n - int(got.value); !c.shortOf && beyond < minBeyond {
			t.Errorf("n=%d q=%g: only %d samples beyond", c.n, c.q, beyond)
		}
		if l := got.label(c.q); l != c.label {
			t.Errorf("n=%d q=%g: label %q, want %q", c.n, c.q, l, c.label)
		}
	}
	if got := percentile(nil, 0.99); got.n != 0 || got.label(0.99) != "no samples" {
		t.Errorf("empty: %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
}

func TestRoundP50IsTheLowestRoundP50(t *testing.T) {
	// 21 samples from base up: the round's p50 is base+10, with ten above.
	round := func(base float64) roundResult {
		r := roundResult{}
		for i := 0; i < 21; i++ {
			r.latencyMS = append(r.latencyMS, base+float64(i))
		}
		return r
	}
	rounds := []roundResult{round(0), round(100), round(5), {}} // round(100): a stall hit it
	m := roundP50("latency_p50_ms", rounds, func(r roundResult) []float64 { return r.latencyMS })
	if m.value != 10 || m.note != "lowest of 3 rounds' p50, n=63" {
		t.Errorf("got %g (%s), want 10 over 3 rounds and 63 samples", m.value, m.note)
	}
	if m := roundP50("read_p50_ms", rounds[3:], func(r roundResult) []float64 { return r.readMS }); m.value != 0 || m.note != "no samples" {
		t.Errorf("no samples: %+v", m)
	}
}

func TestThroughputIsTheBestRound(t *testing.T) {
	rounds := []roundResult{{throughput: 200}, {throughput: 90}, {throughput: 300}, {throughput: 250}}
	if v, note := bestThroughput(rounds); v != 300 || note != "best of 4 rounds" {
		t.Errorf("got %g (%s), want 300 over 4 rounds", v, note)
	}
}

func TestNominalScheduleIsOpenLoop(t *testing.T) {
	w := workload{tenants: 3, nominal: 64, chunk: 16, rate: 1600, readEvery: 32}
	gap := 10 * time.Millisecond // 16 events at 1600 events/s
	sched := nominalSchedule(w, 2)
	seen := map[[2]int]time.Duration{}
	reads := 0
	for p, ops := range sched {
		for i, o := range ops {
			if o.tenant%2 != p {
				t.Fatalf("producer %d got tenant %d", p, o.tenant)
			}
			if i > 0 && o.due < ops[i-1].due {
				t.Fatalf("producer %d: op %d due %v before %v", p, i, o.due, ops[i-1].due)
			}
			want := time.Duration(o.chunk*w.tenants+o.tenant) * gap
			if o.read {
				reads++
				if (o.chunk+1)*w.chunk%w.readEvery != 0 {
					t.Errorf("read after chunk %d of %d events", o.chunk, w.chunk)
				}
				if o.due != want+gap/2 {
					t.Errorf("read of tenant %d chunk %d due %v, want %v", o.tenant, o.chunk, o.due, want+gap/2)
				}
				continue
			}
			if o.due != want {
				t.Errorf("tenant %d chunk %d due %v, want %v", o.tenant, o.chunk, o.due, want)
			}
			seen[[2]int{o.tenant, o.chunk}] = o.due
		}
	}
	if len(seen) != w.tenants*w.nominal/w.chunk {
		t.Errorf("%d chunks scheduled, want %d", len(seen), w.tenants*w.nominal/w.chunk)
	}
	if want := w.tenants * w.nominal / w.readEvery; reads != want {
		t.Errorf("%d reads scheduled, want %d", reads, want)
	}
	// The offered rate is the workload's: the last chunk is due after
	// all but one chunk interval of the phase.
	if last := seen[[2]int{2, 3}]; last != time.Duration(w.tenants*w.nominal/w.chunk-1)*gap {
		t.Errorf("last chunk due %v", last)
	}
}

func TestLatenessCountsOnlyLateSends(t *testing.T) {
	cases := []struct{ due, sent, want time.Duration }{
		{due: 10 * time.Millisecond, sent: 10 * time.Millisecond, want: 0},
		{due: 10 * time.Millisecond, sent: 13 * time.Millisecond, want: 3 * time.Millisecond},
		{due: 10 * time.Millisecond, sent: 9 * time.Millisecond, want: 0},
	}
	for _, c := range cases {
		if got := lateness(c.due, c.sent); got != c.want {
			t.Errorf("lateness(%v, %v) = %v, want %v", c.due, c.sent, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one inside", []span{{Start: 120, End: 150}}, 70},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested count once", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 300}}, 70},
		{"outside the parent", []span{{Start: 200, End: 260}, {Start: 10, End: 100}}, 100},
		{"covers the parent", []span{{Start: 0, End: 1000}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestReferenceCheckFlagsMismatch(t *testing.T) {
	ts, err := synthesize(workload{domains: []string{"days"}, tenants: 1, nominal: 32, saturate: 32, chunk: 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	refs, _, err := replayAll(ts)
	if err != nil {
		t.Fatal(err)
	}
	ref := refs[ts[0].name]
	if err := ref.check("t", ref.cost, ref.snapshot, ref.events); err != nil {
		t.Fatalf("identical state: %v", err)
	}
	cost := ref.cost
	cost.Lease++
	for _, err := range []error{
		ref.check("t", ref.cost, ref.snapshot, ref.events-1),
		ref.check("t", cost, ref.snapshot, ref.events),
		ref.check("t", ref.cost, leasing.Solution{}, ref.events),
	} {
		if !errors.Is(err, errMismatch) {
			t.Errorf("divergence not flagged: %v", err)
		}
	}
}

// perLayerNames is every per-layer metric the traced run reports.
var perLayerNames = []string{
	"client.self_us_per_event", "client.bytes_per_event",
	"server.submit_self_us_per_event", "server.backpressure_ratio", "server.snapshot_ms_p50", "server.snapshot_ms_p99",
	"engine.queue_wait_ms_p50", "engine.queue_wait_ms_p99", "engine.events_per_wake",
	"engine.publish_us_per_event", "engine.publishes_per_kevent", "engine.shard_busy_share",
	"engine.apply_us_per_event.days", "engine.apply_us_per_event.deadline", "engine.apply_us_per_event.elements",
	"engine.apply_us_per_event.facility", "engine.apply_us_per_event.steiner", "engine.apply_us_per_event.reusable",
	"stream.replay_us_per_event",
	"wal.append_ms_p50", "wal.append_ms_p99", "wal.syncs_per_append", "wal.bytes_per_event", "wal.open_s", "engine.restore_s",
	"cluster.ship_ms_p50", "cluster.records_per_ship", "cluster.follower_append_ms_p50", "cluster.catchup_ms",
	"gen.lag_ms_p99", "trace.overhead_ratio",
}

// TestToyRuns runs every workload at toy size, untraced and traced, and
// checks the report names every metric and ends in a correct result.
func TestToyRuns(t *testing.T) {
	endToEndNames := []string{"throughput_eps", "latency_p50_ms", "latency_p99_ms", "read_p50_ms", "read_p99_ms",
		"failed_ratio", "setup_s", "state_mb", "recover_s"}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				if err := bench(toy(w), 3, 0, trace == "1", t.TempDir(), &out); err != nil {
					t.Fatal(err)
				}
				text := out.String()
				names := endToEndNames
				if trace == "1" {
					names = perLayerNames
				}
				for _, name := range names {
					if !strings.Contains(text, "  "+name+" ") {
						t.Errorf("report lacks %s:\n%s", name, text)
					}
				}
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				want := endToEndJSON
				if trace == "1" {
					want = perLayerNames
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("result lacks %s", name)
					}
				}
			})
		}
	}
}

// TestSpansLinkWithinTheirRound runs two traced rounds on one tracer and
// checks that every engine.apply span hangs under a submit handler of
// its own round, although both rounds send the same request ids.
func TestSpansLinkWithinTheirRound(t *testing.T) {
	w, err := lookupWorkload("ingest-days")
	if err != nil {
		t.Fatal(err)
	}
	w = toy(w)
	ts, err := synthesize(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	refs, _, err := replayAll(ts)
	if err != nil {
		t.Fatal(err)
	}
	tr, epoch := &tracer{}, time.Now()
	for round := 0; round < 2; round++ {
		r, err := runRound(context.Background(), w, 3, refs, t.TempDir(), epoch, tr)
		if err != nil {
			t.Fatal(err)
		}
		submits := map[uint64]span{}
		for _, s := range r.spans {
			if s.Name == "server.submit" {
				submits[s.ID] = s
			}
		}
		applies := 0
		for _, s := range r.spans {
			if s.Name != "engine.apply" {
				continue
			}
			applies++
			if sub, ok := submits[s.Parent]; !ok || sub.Req != s.Req {
				t.Errorf("round %d: %s apply has parent %d, not a submit of %s in this round", round, s.Req, s.Parent, s.Req)
			}
		}
		if want := w.tenants * (w.nominal + w.saturate) / w.chunk; applies != want {
			t.Errorf("round %d: %d engine.apply spans, want %d", round, applies, want)
		}
	}
}

// flakyRemote accepts half of each submit's events and fails it, as a
// client does whose retries run out mid-chunk, until fails runs out.
type flakyRemote struct {
	remote
	fails int
	got   []leasing.RemoteEvent
}

func (r *flakyRemote) Submit(_ context.Context, _ string, evs []leasing.RemoteEvent) (int, error) {
	n := len(evs)
	var err error
	if r.fails > 0 {
		r.fails--
		n, err = n/2, errors.New("backpressure after retries")
	}
	r.got = append(r.got, evs[:n]...)
	return n, err
}

func TestFailedSubmitIsCountedAndResent(t *testing.T) {
	w := workload{domains: []string{"days"}, tenants: 1, nominal: 32, saturate: 32, chunk: 32}
	ts, err := synthesize(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []leasing.RemoteEvent
	for _, ev := range ts[0].events[32:64] {
		wev, err := wire.FromStreamEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, wev)
	}
	p := newProbe(time.Now(), w.chunk, nil, ts, w.domains)
	cli := &flakyRemote{fails: 2}
	if err := (&producer{cli: cli, p: p}).submit(context.Background(), ts[0], 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cli.got, want) {
		t.Errorf("service got %d events, want chunk 1's %d in order", len(cli.got), len(want))
	}
	if a, f := p.ops.Load(), p.failedOps.Load(); a != 3 || f != 2 {
		t.Errorf("%d requests, %d failed; want 3 and 2", a, f)
	}

	// A chunk that never gets through fails the round.
	p = newProbe(time.Now(), w.chunk, nil, ts, w.domains)
	cli = &flakyRemote{fails: maxResends + 1}
	if err := (&producer{cli: cli, p: p}).submit(context.Background(), ts[0], 1); err == nil {
		t.Error("a chunk that never got through passed")
	}
	if a, f := p.ops.Load(), p.failedOps.Load(); a != maxResends+1 || f != a {
		t.Errorf("%d requests, %d failed; want %d of each", a, f, maxResends+1)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
