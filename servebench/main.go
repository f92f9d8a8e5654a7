// Command servebench is the served-path benchmark of the lease
// service. For one workload it runs rounds of a fixed amount of
// traffic against in-process loopback nodes wired like cmd/leased,
// checks every tenant against a single-threaded Replay, and prints
// every metric by name with its unit; the last line is one JSON
// object. README.md beside it explains the workloads and metrics.
//
// Usage:
//
//	servebench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of untraced rounds.
// With --trace 1 it alternates untraced and traced rounds and reports
// the per-layer table, the tracing overhead, and writes the span dump.
// Rounds repeat until --seconds have passed (at least one of each
// kind), and none starts that would end more than half a round later.
// Throughput is the best round's, p50s the lowest round's, the other
// timings medians over rounds, and the other percentiles pool the
// rounds' samples. WALs and the span dump go under .bench_build/data
// in the working directory. Exit status 1 means an error or a mismatch
// with Replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: ingest-days, mixed-long-rw or replicated-durable")
		seed    = fs.Int64("seed", 1, "seed of the synthesized tenants")
		seconds = fs.Float64("seconds", 10, "run rounds until this many seconds have passed")
		trace   = fs.Int("trace", 0, "1: report per-layer metrics from traced rounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "servebench: --trace must be 0 or 1")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	if err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, filepath.Join(".bench_build", "data"), stdout); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	return 0
}

// bench runs w's rounds and prints the report and the result line. A
// mismatch with Replay ends the run with a result line that says so.
func bench(w workload, seed int64, budget time.Duration, traced bool, dir string, out io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ts, err := synthesize(w, seed)
	if err != nil {
		return err
	}
	refs, replayPer, err := replayAll(ts)
	if err != nil {
		return err
	}
	ctx := context.Background()
	epoch := time.Now()
	var tr *tracer
	need := 1 // measured rounds: one untraced, and with tracing one traced
	if traced {
		tr, need = &tracer{}, 2
	}
	var rounds []roundResult
	var spans []span
	// Requests sent and requests that failed after the client's own
	// retries, over every round, warm-up included.
	var attempted, failed int64
	ran := 0
	// The rounds of the first tenth of the budget (at least one) warm
	// the process up — heap grown, pools filled — and are checked but
	// not measured. Measured rounds alternate untraced and traced. No
	// round starts that would end more than half a round past the
	// budget, so a run lasts about the budget whatever a round takes.
	warm := true
	var last time.Duration
	for i := 0; time.Since(epoch)+last/2 < budget || len(rounds) < need; i++ {
		if warm && i > 0 && time.Since(epoch) >= budget/10 {
			warm = false
		}
		var rtr *tracer
		if !warm && len(rounds)%2 == 1 {
			rtr = tr
		}
		t0 := time.Now()
		r, err := runRound(ctx, w, seed, refs, dir, epoch, rtr)
		last = time.Since(t0)
		ran++
		attempted += r.attempted
		failed += r.failed
		if err != nil {
			if errors.Is(err, errMismatch) {
				line, _ := resultLine(false, attempted, failed, nil, nil)
				fmt.Fprintf(out, "%s\n", line)
			}
			return fmt.Errorf("round %d: %w", i, err)
		}
		if !warm {
			spans = append(spans, r.spans...)
			rounds = append(rounds, r)
		}
	}

	fmt.Fprintf(out, "servebench workload=%s seed=%d traced=%v rounds=%d tenants=%d events/tenant=%d+%d chunk=%d nominal=%g events/s\n",
		w.name, seed, traced, len(rounds), w.tenants, w.nominal, w.saturate, w.chunk, w.rate)
	fmt.Fprintf(out, "correct: every tenant matched Replay in %d rounds, %d of them measured (%d requests, %d failed)\n",
		ran, len(rounds), attempted, failed)
	for i, r := range rounds {
		fmt.Fprintf(out, "round %d traced=%v setup_s=%.4f throughput_eps=%.0f latency_p50_ms=%.3f latency_p99_ms=%.3f\n",
			i, r.traced, r.setup.Seconds(), r.throughput, percentile(r.latencyMS, 0.50).value, percentile(r.latencyMS, 0.99).value)
	}
	e2e := endToEnd(w, rounds, attempted, failed)
	printTable(out, "end-to-end (untraced rounds)", e2e)
	var line []byte
	if traced {
		layers := perLayer(w, rounds, spans, replayPer)
		printTable(out, "per-layer (traced rounds)", layers)
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := dumpSpans(path, spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), path)
		line, err = resultLine(true, attempted, failed, layers, nil)
	} else {
		line, err = resultLine(true, attempted, failed, e2e, endToEndJSON)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// dumpSpans writes the span dump to path.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
