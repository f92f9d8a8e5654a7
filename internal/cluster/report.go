package cluster

// The generated cluster reference. docs/CLUSTER.md is rendered from
// this package by cmd/leasereport — the placement section quotes the
// same constants the ring hashes with, and the scaling section is
// quantified from the committed BENCH_PR8.json — so the document
// cannot drift from the implementation.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// ScalingFleet is one cluster size's measurement inside the committed
// BENCH_PR8.json; `leaseload -nodes N -wal nosync` reproduces each.
type ScalingFleet struct {
	Nodes           int     `json:"nodes"`
	EventsPerSec    float64 `json:"events_per_sec"`
	SpeedupVsSingle float64 `json:"speedup_vs_single"`
	ShippedRecords  int64   `json:"shipped_records"`
}

// ScalingBench is the committed cluster scaling benchmark
// ClusterMarkdown quantifies the scaling section from.
type ScalingBench struct {
	Tenants           int            `json:"tenants"`
	TotalEvents       int64          `json:"total_events"`
	ScalingEfficiency float64        `json:"scaling_efficiency"`
	Fleets            []ScalingFleet `json:"fleets"`
}

// LoadScalingBench reads a committed BENCH_PR8.json. It is shared by
// cmd/leasereport and the docs drift tests so both quantify the
// generated document from the same bytes.
func LoadScalingBench(path string) (*ScalingBench, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s ScalingBench
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return &s, nil
}

// ClusterMarkdown renders the body of docs/CLUSTER.md: tenant
// placement (from this package's ring constants), request routing,
// the log-shipping replication contract, the failover runbook, and the
// node-count scaling measurements (quantified from bench when
// non-nil). The output is a pure function of (this package, bench),
// which is what lets `leasereport -check` gate drift.
func ClusterMarkdown(bench *ScalingBench) []byte {
	var b bytes.Buffer
	b.WriteString(`# Clustering — placement, replication and failover

A cluster is N identical daemons started with the same ` + "`-peers`" + ` list
(` + "`leased -peers URL,URL,... -self URL -data-dir DIR`" + `). There is no
coordinator and no membership protocol: every node — and every
cluster-aware client — builds the same consistent-hash ring from the
shared peer list, so they all agree on which node owns which tenant
without talking to each other. Each node serves the tenants the ring
places on it, answers 307 for the rest, and streams every write-ahead
log record it appends to the tenant's replica, so killing a node fails
its tenants over onto a survivor already holding their full logged
history — and the recovered state is byte-identical to an
uninterrupted run.

This reference is generated from ` + "`internal/cluster`" + ` by
` + "`cmd/leasereport`" + ` (the ` + "`-check`" + ` gate keeps it byte-identical to the
code). The operator view — flags, drill commands, monitoring — is in
[OPERATIONS.md](OPERATIONS.md); the single-node durability layer the
replication builds on is in [DURABILITY.md](DURABILITY.md); the layer
diagram is in [ARCHITECTURE.md](ARCHITECTURE.md).

## Tenant placement

`)
	fmt.Fprintf(&b, `The ring hashes every member to %d virtual points (FNV-64a of the
member URL, salted per point and mixed through a SplitMix64 finalizer,
so nearly-identical URLs still scatter). A tenant is owned by the
member whose point follows the tenant's hash clockwise. Two properties
make this the right placement for a stateful fleet:

- **Even spread.** Every member owns many short arcs, so the hash
  alone spreads tenants evenly: no member of a 1- to 16-node ring owns
  more than 1.25 times its even share of a seeded population of 2,048
  tenants. There is no load cap and no spill: a tenant's node is its
  hash owner until that owner leaves the ring.
- **Minimal movement.** Removing a member moves only the tenants it
  owned; every other tenant keeps its node (the property tests pin
  both bounds).

The keystone is where a removed member's tenants land: each moves to
its **replica** — the next distinct member clockwise from its hash.
That is exactly the node its WAL records are shipped to, so failover
traffic arrives where the tenant's history already lives.

`, DefaultVnodes)
	b.WriteString(`## Request routing

A tenant-scoped request to the wrong node is answered with a ` + "`307`" + `
to the same path on the owner. 307 preserves the method and body, and
Go's ` + "`http.Client`" + ` re-sends both (bearer token included)
transparently — so a client with a stale peer list still works, it
just pays an extra hop per request. The cluster client
(` + "`leasing.DialCluster`" + `) builds the ring itself and routes every
tenant straight to its owner, so in steady state no request redirects.
A tenant already active locally — as it is after a failover activation
— is served locally even though the static ring places it elsewhere.
Health, metrics and the replication endpoints never redirect.

## Replication — log shipping

Every node wraps its write-ahead log in a shipper
(` + "`leasing.ReplicateDurableLog`" + `): each record the log appends — open,
event batch, close — is also sent, **byte-identical**, to the
tenant's replica over ` + "`POST /v1/replica/records`" + ` (the binary wire
framing, admin scope). The receiving node appends the records to a
separate **follower log** (` + "`<data-dir>/follower`" + `), which therefore
holds, record for record, the same bytes the primary's own log holds
for those tenants — the byte-identity the failover verification
leans on.

Shipping is asynchronous and ordered per tenant, and its delivery
contract is **prefix consistency**: whatever happens, a follower log
is always a clean prefix of the primary's per-tenant record stream.

- A structured rejection carries how many records the follower
  applied; the shipper resumes after exactly that count.
- An ambiguous failure (connection lost mid-request — the batch may
  or may not have been applied) **sticky-fails the peer**: the shipper
  stops shipping to it rather than risk re-sending a possibly-applied
  batch. A gap or a double-apply would corrupt the follower; a frozen
  prefix just means a longer resume after failover.
- A full outbound queue fails the peer the same way — dropping one
  record in the middle would be a gap.

Failed peers appear in the shipper's stats, the daemon's drain log
line, and the ` + "`leased_shipper_failed_peers`" + ` metric. A failed peer's
follower copy is frozen but intact: events acknowledged after the
failure exist only on the primary, and a failover then recovers the
shorter prefix — clients re-send the difference, exactly as they do
for unshipped tail records (see the runbook). To re-establish a full
copy, fail the tenant over (adoption re-logs its history through the
new owner's replicated WAL, shipping it onward) or restart the fleet
node so shipping starts fresh from a recovered, compacted log.

One deliberate asymmetry: **boot never re-ships.** Recovery rebuilds
sessions by replaying the local log without re-logging, so a restarted
node does not flood its peers with history they already hold.

## Failover runbook

1. **A node dies.** Mark it down on the cluster client
   (` + "`MarkDown`" + `): the live ring drops the node and the dead node's
   tenants route to their replicas. Other tenants keep their owners —
   minimal movement again.
2. **Activate the replicas.** ` + "`Activate`" + ` posts the down list to
   every survivor (` + "`POST /v1/replica/activate`" + `). A survivor adopts a
   follower session only if the tenant's ring owner is in the down
   list **and** it is the tenant's first live successor — so exactly
   one survivor claims each tenant, and tenants whose primary is
   healthy are never touched even though survivors' follower logs
   hold them. Adoption first copies the shipped history into the
   survivor's own write-ahead log (which, being replicated itself,
   ships the tenant onward to its next replica), then rebuilds the
   session from its logged spec and replays — the same event-sourced
   recovery the single-node daemon runs on boot.
3. **Resume ingestion.** After a failover, the authoritative resume
   point is the new owner's processed-event count (flush, then read
   it): records the dead node acknowledged but never shipped are gone
   from the cluster and must be re-sent, and the count says exactly
   where from. The cluster client's ` + "`SubmitResume`" + ` does this loop —
   resync, resume, never re-send what the new owner holds, never skip
   what it lost.
4. **Verify.**
   ` + "`go run ./cmd/leaseload -leased <binary> -nodes 3 -wal fsync -kill`" + `
   runs the whole drill: spawn a fleet, SIGKILL the busiest node
   mid-load, fail over, resume, and byte-compare every tenant against
   a single-threaded replay of its full history.

## Scaling

`)
	if bench != nil {
		fmt.Fprintf(&b, `The committed [BENCH_PR8.json](../BENCH_PR8.json) (%d mixed-domain
tenants, %d events, every node durable and shipping; each row is
reproduced by `+"`leaseload -nodes N -wal nosync`"+`) measures ingestion
throughput against cluster size on the baseline hardware:

| Nodes | Throughput | Speedup | Shipped records |
| --- | --- | --- | --- |
`, bench.Tenants, bench.TotalEvents)
		for _, f := range bench.Fleets {
			fmt.Fprintf(&b, "| %d | %.0f events/s | %.2fx | %d |\n",
				f.Nodes, f.EventsPerSec, f.SpeedupVsSingle, f.ShippedRecords)
		}
		fmt.Fprintf(&b, `
Scaling efficiency — the largest fleet's speedup over one node,
divided by its node count — is **%.2f**. Read it as a cost floor, not
a capacity ceiling: the bench co-locates every fleet on one host, so
the nodes split the same cores and the speedup column isolates what
replication itself costs (ship, follower append, redirect-free
routing) rather than what added hardware buys. Two further caveats
carry over to real fleets: placement spreads tenants, not events — a
workload whose tenants differ in volume scales by the load of the
busiest node's tenants — and every shipped record is a second append,
so a fleet buys capacity only when nodes stop sharing spindles and
cores.
`, bench.ScalingEfficiency)
	} else {
		b.WriteString(`No committed BENCH_PR8.json was found next to this document, so the
scaling trade-off is not quantified here; restore it from version
control (` + "`go run ./cmd/leaseload -nodes N -wal nosync -json`" + ` measures
one of its fleets) and then regenerate this document.
`)
	}
	return b.Bytes()
}
