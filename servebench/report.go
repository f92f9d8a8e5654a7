package main

// Turning rounds into metrics. End-to-end metrics come from untraced
// rounds; per-layer metrics from traced rounds, except the generator's
// lateness and the tracing overhead, which compare against the
// untraced rounds of the same run.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name   string
	unit   string
	value  float64
	note   string // sample count, or what the value is a median of
	absent bool   // the workload does not exercise this layer
}

// endToEndJSON names the end-to-end metrics the result line carries:
// those every workload measures, none can read 0, and whose spread over
// seeds stays within their bound in BENCHMARK.json. latency_p99_ms is
// printed but left out: on two cores a collector cycle takes one of
// them, and how many chunks its pause catches decides the p99 (see
// README.md).
var endToEndJSON = []string{"throughput_eps", "latency_p50_ms", "setup_s", "state_mb"}

// domains lists every domain a workload can run, in report order.
var domains = []string{"days", "deadline", "elements", "facility", "steiner", "reusable"}

func pick(rounds []roundResult, traced bool) []roundResult {
	var out []roundResult
	for _, r := range rounds {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func medianOf(rounds []roundResult, f func(roundResult) float64) (float64, string) {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs), fmt.Sprintf("median of %d rounds", len(rounds))
}

// bestThroughput reports the highest of the rounds' saturation
// throughputs, for the reason roundP50 takes the lowest p50.
func bestThroughput(rounds []roundResult) (float64, string) {
	best := 0.0
	for _, r := range rounds {
		best = max(best, r.throughput)
	}
	return best, fmt.Sprintf("best of %d rounds", len(rounds))
}

func pooled(rounds []roundResult, f func(roundResult) []float64) []float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, f(r)...)
	}
	return xs
}

// roundP50 reports the lowest of the rounds' p50s of f's samples. Every
// round does the same work, so a change to the program moves every
// round's p50 alike. The host does not: on a shared machine it takes
// the cores away for milliseconds at a time, the chunks due meanwhile
// queue, and that hits some rounds and spares others. The quietest
// round shows the program with the least of it.
func roundP50(name string, rounds []roundResult, f func(roundResult) []float64) metric {
	var p50s []float64
	n := 0
	for _, r := range rounds {
		if xs := f(r); len(xs) > 0 {
			p50s = append(p50s, percentile(xs, 0.50).value)
			n += len(xs)
		}
	}
	if n == 0 {
		return metric{name: name, unit: "ms", note: "no samples"}
	}
	return metric{name: name, unit: "ms", value: slices.Min(p50s), note: fmt.Sprintf("lowest of %d rounds' p50, n=%d", len(p50s), n)}
}

// tailMetric reports percentile q of xs under the ten-beyond rule.
func tailMetric(name string, xs []float64, q float64) metric {
	t := percentile(xs, q)
	return metric{name: name, unit: "ms", value: t.value, note: t.label(q)}
}

// endToEnd computes the end-to-end metrics of w from the untraced
// rounds, and failed_ratio from the run's request counts.
func endToEnd(w workload, all []roundResult, attempted, failed int64) []metric {
	rounds := pick(all, false)
	var ms []metric
	add := func(m metric) { ms = append(ms, m) }

	v, note := bestThroughput(rounds)
	add(metric{name: "throughput_eps", unit: "events/s", value: v, note: note})
	lat := func(r roundResult) []float64 { return r.latencyMS }
	add(roundP50("latency_p50_ms", rounds, lat))
	add(tailMetric("latency_p99_ms", pooled(rounds, lat), 0.99))
	read := func(r roundResult) []float64 { return r.readMS }
	for _, m := range []metric{roundP50("read_p50_ms", rounds, read), tailMetric("read_p99_ms", pooled(rounds, read), 0.99)} {
		m.absent = w.readEvery == 0
		add(m)
	}
	add(metric{name: "failed_ratio", unit: "ratio", value: float64(failed) / float64(max(attempted, 1)),
		note: fmt.Sprintf("%d of %d requests, every round", failed, attempted)})
	v, note = medianOf(rounds, func(r roundResult) float64 { return r.setup.Seconds() })
	add(metric{name: "setup_s", unit: "s", value: v, note: note})
	v, note = medianOf(rounds, func(r roundResult) float64 { return r.stateMB })
	add(metric{name: "state_mb", unit: "MiB", value: v, note: note})
	v, note = medianOf(rounds, func(r roundResult) float64 { return r.recovery().Seconds() })
	add(metric{name: "recover_s", unit: "s", value: v, note: note, absent: !w.durable()})
	lag := tailMetric("gen.lag_ms_p99", pooled(rounds, func(r roundResult) []float64 { return r.lagMS }), 0.99)
	add(lag)
	return ms
}

// perLayer computes the per-layer metrics of w from the traced rounds
// and their spans, each round's linked by linkSpans.
func perLayer(w workload, all []roundResult, spans []span, replayPer time.Duration) []metric {
	rounds := pick(all, true)
	var events, wakes, satBusy, satCap, walAppends, walSyncs, walBytes, walEvents, shipped, posts int64
	var submitBytes, submits, backpressured, publishNS, publishes int64
	applyNS, applyN := map[string]int64{}, map[string]int64{}
	for _, r := range rounds {
		events += r.events
		wakes += r.wakes
		satBusy += r.satBusy
		satCap += r.satWindow * int64(runtime.GOMAXPROCS(0))
		walAppends += r.walAppends
		walSyncs += r.walSyncs
		walBytes += r.walBytes
		walEvents += r.walEvents
		shipped += r.shipped
		posts += r.shipPosts
		c := r.layers
		submitBytes += c.submitBytes
		submits += c.submits
		backpressured += c.backpressured
		publishNS += c.publishNS
		publishes += c.publishes
		for d, ns := range c.applyNS {
			applyNS[d] += ns
			applyN[d] += c.applyN[d]
		}
	}
	byName := map[string][]span{}
	byID := map[uint64]span{}
	children := map[uint64][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	// selfSum totals the self time of the spans named name, counting only
	// children named child: a submit handler's self time excludes its WAL
	// appends, not the apply that may overlap it on a shard.
	selfSum := func(name, child string) int64 {
		var total int64
		for _, s := range byName[name] {
			var cs []span
			for _, c := range children[s.ID] {
				if c.Name == child {
					cs = append(cs, c)
				}
			}
			total += selfTime(s, cs)
		}
		return total
	}
	durations := func(name string, withReq bool) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			if !withReq || s.Req != "" {
				xs = append(xs, float64(s.dur())/1e6)
			}
		}
		return xs
	}
	// Queue wait: from the submit handler's return to the chunk's first
	// Observe, over the nominal phase's chunks.
	var queueWait []float64
	for _, s := range byName["engine.apply"] {
		sub, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if k, _ := strconv.Atoi(s.Req[strings.LastIndexByte(s.Req, '/')+1:]); k < w.nominal/w.chunk {
			queueWait = append(queueWait, float64(max(s.Start-sub.End, 0))/1e6)
		}
	}
	perEvent := func(total int64, n int64) float64 { return float64(total) / float64(max(n, 1)) }

	var ms []metric
	add := func(name, unit string, v float64, note string, absent bool) {
		ms = append(ms, metric{name: name, unit: unit, value: v, note: note, absent: absent})
	}
	addTail := func(name string, xs []float64, q float64, absent bool) {
		m := tailMetric(name, xs, q)
		m.absent = absent
		ms = append(ms, m)
	}
	ev := fmt.Sprintf("over %d events", events)
	add("client.self_us_per_event", "us", perEvent(selfSum("client.submit", "client.http"), events)/1e3, ev, false)
	add("client.bytes_per_event", "B", perEvent(submitBytes, events), ev, false)
	add("server.submit_self_us_per_event", "us", perEvent(selfSum("server.submit", "wal.append"), events)/1e3, ev, false)
	add("server.backpressure_ratio", "ratio", perEvent(backpressured, submits), fmt.Sprintf("%d of %d submits", backpressured, submits), false)
	snaps := durations("server.snapshot", true)
	addTail("server.snapshot_ms_p50", snaps, 0.50, w.readEvery == 0)
	addTail("server.snapshot_ms_p99", snaps, 0.99, w.readEvery == 0)
	addTail("engine.queue_wait_ms_p50", queueWait, 0.50, false)
	addTail("engine.queue_wait_ms_p99", queueWait, 0.99, false)
	add("engine.events_per_wake", "events", perEvent(events, wakes), fmt.Sprintf("%d wakes", wakes), false)
	add("engine.publish_us_per_event", "us", perEvent(publishNS, events)/1e3, ev, false)
	add("engine.publishes_per_kevent", "count", perEvent(1000*publishes, events), fmt.Sprintf("%d publishes", publishes), false)
	add("engine.shard_busy_share", "ratio", perEvent(satBusy, satCap), fmt.Sprintf("saturation phase, %d cores", runtime.GOMAXPROCS(0)), false)
	for _, d := range domains {
		_, used := applyN[d]
		add("engine.apply_us_per_event."+d, "us", perEvent(applyNS[d], applyN[d])/1e3,
			fmt.Sprintf("over %d events", applyN[d]), !used)
	}
	add("stream.replay_us_per_event", "us", float64(replayPer)/1e3, "single-threaded Replay", false)
	noWAL := !w.durable()
	addTail("wal.append_ms_p50", durations("wal.append", false), 0.50, noWAL)
	addTail("wal.append_ms_p99", durations("wal.append", false), 0.99, noWAL)
	add("wal.syncs_per_append", "ratio", perEvent(walSyncs, walAppends), fmt.Sprintf("%d appends", walAppends), noWAL)
	add("wal.bytes_per_event", "B", perEvent(walBytes, walEvents), fmt.Sprintf("over %d events", walEvents), noWAL)
	v, note := medianOf(rounds, func(r roundResult) float64 { return r.walOpen.Seconds() })
	add("wal.open_s", "s", v, note, noWAL)
	v, note = medianOf(rounds, func(r roundResult) float64 { return r.restore.Seconds() })
	add("engine.restore_s", "s", v, note, noWAL)
	addTail("cluster.ship_ms_p50", durations("cluster.ship", false), 0.50, noWAL)
	add("cluster.records_per_ship", "records", perEvent(shipped, posts), fmt.Sprintf("%d posts", posts), noWAL)
	addTail("cluster.follower_append_ms_p50", durations("cluster.follower_append", false), 0.50, noWAL)
	v, note = medianOf(rounds, func(r roundResult) float64 { return float64(r.catchup) / 1e6 })
	add("cluster.catchup_ms", "ms", v, note, noWAL)

	untraced := pick(all, false)
	lag := tailMetric("gen.lag_ms_p99", pooled(untraced, func(r roundResult) []float64 { return r.lagMS }), 0.99)
	ms = append(ms, lag)
	plain, _ := bestThroughput(untraced)
	traced, _ := bestThroughput(rounds)
	add("trace.overhead_ratio", "ratio", plain/traced,
		fmt.Sprintf("untraced/traced throughput_eps, %d and %d rounds", len(untraced), len(rounds)), false)
	return ms
}

// linkSpans sets each engine.apply span's parent to the submit handler
// of the same request, so the dump reads as one tree per request. It
// takes one round's spans: request ids repeat in every round.
func linkSpans(spans []span) {
	submitOf := map[string]uint64{}
	for _, s := range spans {
		if s.Name == "server.submit" {
			submitOf[s.Req] = s.ID
		}
	}
	for i, s := range spans {
		if s.Name == "engine.apply" {
			spans[i].Parent = submitOf[s.Req]
		}
	}
}

// printTable writes metrics one per line, "absent" for layers the
// workload does not exercise.
func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		if m.absent {
			fmt.Fprintf(w, "  %-36s %14s\n", m.name, "absent")
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// result is the last line of the output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine encodes the result with the named metrics, or all of ms
// when names is nil. An absent layer reads 0.
func resultLine(correct bool, attempted, failed int64, ms []metric, names []string) ([]byte, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonValue{}}
	for _, m := range ms {
		if names != nil && !slices.Contains(names, m.name) {
			continue
		}
		v := m.value
		if m.absent {
			v = 0
		}
		r.Metrics[m.name] = jsonValue{Value: v, Unit: m.unit}
	}
	return json.Marshal(r)
}
