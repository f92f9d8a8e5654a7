// Command leasesim replays demand traces (see leasegen) through the
// unified streaming Leaser API and reports the online cost next to the
// offline optimum and the resulting empirical competitive ratio. It is
// built entirely on the public leasing package: a trace is a JSON array
// of wire events read with ReadEvents, every algorithm is a Leaser, and
// one generic Replay drives them all. The events' kind picks the domain:
// day (parking permit), window (leasing with deadlines) or element (set
// multicover); every event of every trace must share it.
//
// Usage:
//
//	leasesim -trace days.json -algorithm det  -k 4
//	leasesim -trace days.json -algorithm rand -k 4 -seed 7
//	leasesim -trace a.json,b.json -curve            # deterministic interleave
//	leasesim -trace deadline.json -k 3
//	leasesim -trace elems.json -k 2 -sets 30 -delta 3
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"leasing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leasesim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leasesim", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "trace file(s) written by leasegen; comma-separated traces of the same kind are interleaved deterministically")
		algorithm = fs.String("algorithm", "det", "day traces: det or rand")
		k         = fs.Int("k", 3, "number of lease types (power config, base 4, gamma 0.55)")
		sets      = fs.Int("sets", 20, "element traces: number of sets")
		delta     = fs.Int("delta", 3, "element traces: sets per element")
		seed      = fs.Int64("seed", 1, "seed for randomized algorithms and instance generation")
		curve     = fs.Bool("curve", false, "print the per-event cumulative cost curve")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("missing -trace")
	}

	var (
		kind    string
		streams [][]leasing.Event
	)
	for _, path := range strings.Split(*tracePath, ",") {
		evs, err := readTrace(path)
		if err != nil {
			return err
		}
		for i, ev := range evs {
			k, err := eventKind(ev)
			if err != nil {
				return fmt.Errorf("trace %s: event %d: %w", path, i, err)
			}
			if kind == "" {
				kind = k
			} else if k != kind {
				return fmt.Errorf("trace %s: event %d has kind %q, want %q (traces must share one kind)", path, i, k, kind)
			}
		}
		streams = append(streams, evs)
	}
	events := leasing.Interleave(streams...)
	if len(events) == 0 {
		return fmt.Errorf("traces carry no demands")
	}
	cfg := leasing.PowerLeaseConfig(*k, 4, 0.55)
	rng := rand.New(rand.NewSource(*seed))

	lsr, opt, optNote, verify, err := buildLeaser(cfg, kind, events, *algorithm, *sets, *delta, rng)
	if err != nil {
		return err
	}
	run, err := leasing.Replay(lsr, events)
	if err != nil {
		return err
	}
	if err := verify(lsr.Snapshot()); err != nil {
		return err
	}
	if *curve {
		printCurve(run)
	}
	if optNote != "" {
		fmt.Println(optNote)
	}
	report(run, opt, len(events))
	return nil
}

func readTrace(path string) ([]leasing.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := leasing.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return evs, nil
}

// eventKind names an event's wire kind, for the three kinds leasesim
// can replay.
func eventKind(ev leasing.Event) (string, error) {
	switch ev.Payload.(type) {
	case leasing.DayPayload:
		return "day", nil
	case leasing.WindowPayload:
		return "window", nil
	case leasing.ElementPayload:
		return "element", nil
	}
	return "", fmt.Errorf("unsupported payload %T (want day, window or element events)", ev.Payload)
}

// buildLeaser constructs the domain Leaser for the event kind, computes
// the offline baseline it is measured against, and returns the snapshot
// verifier closed over the instance the leaser was built on.
func buildLeaser(cfg *leasing.LeaseConfig, kind string, events []leasing.Event, algorithm string, sets, delta int, rng *rand.Rand) (leasing.Leaser, float64, string, func(leasing.Solution) error, error) {
	switch kind {
	case "day":
		var alg leasing.ParkingPermitAlgorithm
		var err error
		switch algorithm {
		case "det":
			alg, err = leasing.NewDeterministicParkingPermit(cfg)
		case "rand":
			alg, err = leasing.NewRandomizedParkingPermit(cfg, rng)
		default:
			return nil, 0, "", nil, fmt.Errorf("unknown algorithm %q (want det or rand)", algorithm)
		}
		if err != nil {
			return nil, 0, "", nil, err
		}
		days := eventTimes(events)
		opt, _, err := leasing.ParkingPermitOptimal(cfg, days)
		if err != nil {
			return nil, 0, "", nil, err
		}
		verify := func(sol leasing.Solution) error {
			if !cfg.CoversAll(leasing.SolutionLeases(sol), days) {
				return fmt.Errorf("snapshot does not cover every demand day")
			}
			return nil
		}
		return leasing.NewParkingStream(alg), opt, "", verify, nil

	case "window":
		in, err := deadlineInstance(cfg, events)
		if err != nil {
			return nil, 0, "", nil, err
		}
		lsr, err := leasing.NewDeadlineStream(cfg)
		if err != nil {
			return nil, 0, "", nil, err
		}
		opt, err := leasing.DeadlineOptimal(in, 0)
		if err != nil {
			return nil, 0, "", nil, fmt.Errorf("offline optimum: %w (instance may be too large for exact search)", err)
		}
		verify := func(sol leasing.Solution) error {
			return leasing.VerifyDeadline(in, leasing.SolutionLeases(sol))
		}
		return lsr, opt, "", verify, nil

	case "element":
		inst, err := elementsInstance(cfg, events, sets, delta, rng)
		if err != nil {
			return nil, 0, "", nil, err
		}
		lsr, err := leasing.NewSetCoverStream(inst, rng)
		if err != nil {
			return nil, 0, "", nil, err
		}
		opt, exact, err := leasing.SetCoverOptimal(inst, 50000)
		if err != nil {
			return nil, 0, "", nil, err
		}
		note := ""
		if !exact {
			note = "(offline optimum not proven; reporting best bound)"
		}
		verify := func(sol leasing.Solution) error {
			return leasing.VerifySetCover(inst, leasing.SolutionSetLeases(sol))
		}
		return lsr, opt, note, verify, nil

	default:
		return nil, 0, "", nil, fmt.Errorf("unsupported event kind %q", kind)
	}
}

func deadlineInstance(cfg *leasing.LeaseConfig, events []leasing.Event) (*leasing.DeadlineInstance, error) {
	clients := make([]leasing.DeadlineClient, 0, len(events))
	for i, ev := range events {
		w, ok := ev.Payload.(leasing.WindowPayload)
		if !ok {
			return nil, fmt.Errorf("event %d is not a deadline demand", i)
		}
		clients = append(clients, leasing.DeadlineClient{T: ev.Time, D: w.D})
	}
	return leasing.NewDeadlineInstance(cfg, clients)
}

func elementsInstance(cfg *leasing.LeaseConfig, events []leasing.Event, sets, delta int, rng *rand.Rand) (*leasing.SetCoverInstance, error) {
	arrivals := make([]leasing.ElementArrival, 0, len(events))
	n := 0
	for i, ev := range events {
		e, ok := ev.Payload.(leasing.ElementPayload)
		if !ok {
			return nil, fmt.Errorf("event %d is not an element demand", i)
		}
		if e.Elem < 0 {
			return nil, fmt.Errorf("event %d has negative element %d", i, e.Elem)
		}
		arrivals = append(arrivals, leasing.ElementArrival{T: ev.Time, Elem: e.Elem, P: e.P})
		if e.Elem >= n {
			n = e.Elem + 1
		}
	}
	fam, err := leasing.RandomSetFamily(rng, n, sets, delta)
	if err != nil {
		return nil, err
	}
	costs := leasing.RandomSetCosts(rng, sets, cfg, 0.5)
	return leasing.NewSetCoverInstance(fam, cfg, costs, arrivals, leasing.PerArrival)
}

func eventTimes(events []leasing.Event) []int64 {
	out := make([]int64, len(events))
	for i, ev := range events {
		out[i] = ev.Time
	}
	return out
}

func printCurve(run *leasing.StreamRun) {
	for i, p := range run.Curve {
		fmt.Printf("curve: event %d  t=%d  cost=%.3f  bought=%d\n",
			i, p.Time, p.Cost, len(run.Decisions[i].Leases))
	}
}

func report(run *leasing.StreamRun, opt float64, demands int) {
	fmt.Printf("demands: %d\n", demands)
	fmt.Printf("online cost:  %.3f\n", run.Total())
	fmt.Printf("offline OPT:  %.3f\n", opt)
	if ratio, err := run.Ratio(opt); err == nil {
		fmt.Printf("ratio:        %.3f\n", ratio)
	}
}
