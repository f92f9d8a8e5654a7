// Command leasegen generates synthetic demand traces for leasesim. A
// trace is a JSON array of wire events — day, window or element — the
// body POST /v1/tenants/{tenant}/events takes by default, so a trace
// file can also be posted to a running leased unchanged.
//
// Usage:
//
//	leasegen -kind days     -horizon 365 -p 0.3 [-bursty] > days.json
//	leasegen -kind deadline -horizon 365 -p 0.3 -dmax 14  > deadline.json
//	leasegen -kind elements -horizon 365 -p 0.5 -n 50 -pmax 2 > elems.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"leasing"
	"leasing/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leasegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leasegen", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "days", "trace kind: days, deadline, or elements")
		horizon = fs.Int64("horizon", 365, "number of time steps")
		p       = fs.Float64("p", 0.3, "per-step demand probability")
		bursty  = fs.Bool("bursty", false, "days: use the bursty Markov stream (stay=0.92)")
		dmax    = fs.Int64("dmax", 7, "deadline: maximum slack")
		n       = fs.Int("n", 20, "elements: universe size")
		pmax    = fs.Int("pmax", 1, "elements: maximum multicover multiplicity")
		seed    = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var events []leasing.Event
	switch *kind {
	case "days":
		if *bursty {
			events = leasing.DayEvents(workload.BurstyDays(rng, *horizon, 0.92))
		} else {
			events = leasing.DayEvents(workload.DemandDays(rng, *horizon, *p))
		}
	case "deadline":
		events = leasing.WindowEvents(workload.DeadlineStream(rng, *horizon, *p, *dmax))
	case "elements":
		if *n < 1 {
			return fmt.Errorf("need -n >= 1, got %d", *n)
		}
		events = leasing.ElementEvents(workload.ElementStream(rng, *horizon, *p,
			func() int { return rng.Intn(*n) },
			func() int {
				if *pmax <= 1 {
					return 1
				}
				return 1 + rng.Intn(*pmax)
			},
		))
	default:
		return fmt.Errorf("unknown kind %q (want days, deadline, or elements)", *kind)
	}
	wevs, err := leasing.WireEvents(events)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(wevs)
}
