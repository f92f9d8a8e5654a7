package main

// The workloads. Each is a fixed amount of work per round — a fixed
// number of events per tenant in each phase, never a fixed duration —
// so a faster build does the same work and every tenant ends a round at
// the same history length. The nominal rates are fixed here, once, at
// about half the saturation throughput the benchmark measured for each
// workload when it was defined (see README.md); later changes must not
// move them, or latencies stop being comparable.

import "fmt"

type workload struct {
	name string
	// domains is the tenant domain cycle.
	domains []string
	tenants int
	// nominal and saturate are each tenant's events in the open-loop
	// nominal phase and the back-to-back saturation phase.
	nominal, saturate int
	// chunk is the events per binary submit request.
	chunk int
	// rate is the nominal phase's fixed offered load in events/s.
	rate float64
	// readEvery, when positive, schedules one snapshot GET per tenant
	// per readEvery events it submits in the nominal phase.
	readEvery int
	// nodes is 1 (a plain in-memory node) or 2 (a durable, replicated
	// pair: fsync-on own and follower WALs, log shipping, ring routing).
	nodes int
}

// durable reports whether the workload runs the replicated, WAL-backed
// pair.
func (w workload) durable() bool { return w.nodes > 1 }

var workloads = []workload{
	{
		name:    "ingest-days",
		domains: []string{"days"},
		tenants: 256, nominal: 1024, saturate: 1024,
		chunk: 256, rate: 300_000,
		nodes: 1,
	},
	{
		// Deadline fills two of the six slots so that the p50 chunk is a
		// deadline chunk with a sixth of the chunks on either side of
		// it, not near the edge of its band (see README.md).
		name:    "mixed-long-rw",
		domains: []string{"days", "deadline", "elements", "deadline", "steiner", "reusable"},
		tenants: 24, nominal: 768, saturate: 768,
		chunk: 32, rate: 3_500, readEvery: 32,
		nodes: 1,
	},
	{
		name:    "replicated-durable",
		domains: []string{"days", "deadline", "elements", "facility", "steiner", "reusable"},
		tenants: 48, nominal: 128, saturate: 128,
		chunk: 32, rate: 11_000,
		nodes: 2,
	},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
