package experiments

// Report generation: DESIGN.md and EXPERIMENTS.md are artifacts of this
// registry, regenerated by cmd/leasereport. Nothing here carries a
// timestamp or any other machine-dependent state, so the generated bytes
// are a pure function of (registry, Config) and a byte-wise comparison
// ("leasereport -check") detects any drift between code and docs.

import (
	"bytes"
	"fmt"
)

// GeneratedHeader marks both generated docs. It names the regeneration
// tool but no flags: DESIGN.md is configuration-independent, and
// EXPERIMENTS.md records its exact mode and seed in its own body.
const GeneratedHeader = "<!-- Generated by cmd/leasereport; do not edit by hand." +
	" Regenerate with: go run ./cmd/leasereport (flags recorded in EXPERIMENTS.md) -->\n"

// DesignMarkdown renders DESIGN.md: the repository's layer map and the
// index of every registered experiment. It needs no experiment runs, so it
// is cheap enough for tests and pre-commit checks.
func DesignMarkdown() []byte {
	var b bytes.Buffer
	b.WriteString(GeneratedHeader)
	b.WriteString(`# DESIGN — Online Resource Leasing

This repository reproduces the algorithms and every evaluation artifact of
Christine Markarian's thesis "Online Resource Leasing" (PODC 2015). The
code is stdlib-only Go and deterministic per seed.

## Layers

- **Public API** (package ` + "`leasing`" + `, repository root): facades over the
  internal packages — lease configurations, the problem families
  (parking permit, set multicover leasing, facility leasing, leasing with
  deadlines, the network extensions), the unified streaming Leaser API
  (every online algorithm as a ` + "`Leaser`" + ` consuming ` + "`Event`" + `s and producing
  ` + "`Decision`" + `s, with ` + "`Replay`/`Interleave`" + ` as the generic driver), and
  ` + "`RunExperiment`/`RunAllExperiments`" + ` over the registry below.
- **Stream protocol** (` + "`internal/stream`" + `): the Event/Decision/Leaser
  contract of thesis Section 2.3 — demands in, item-lease triples
  (i, k, t) out — plus the generic replay driver with per-step cost
  curves, ratio-vs-offline tracking, and deterministic multi-stream
  interleaving. Each algorithm package ships a thin conforming adapter.
- **Serving engine** (` + "`internal/engine`" + `): the sharded multi-tenant
  layer over the protocol — sessions hashed across shards, each shard
  draining a batched, backpressured event queue on its own goroutine,
  with cached Cost/Snapshot reads and per-shard metrics. Per tenant the
  engine's output is byte-identical to a single-threaded Replay for any
  shard count and batch size. See docs/ARCHITECTURE.md for the full
  layering and determinism contract.
- **Lease service** (` + "`internal/wire`, `internal/server`," + `
  ` + "`internal/client`" + `): the network boundary over the engine —
  ` + "`internal/wire`" + ` declares the HTTP/JSON protocol (events, open-session
  specs, endpoints, error codes; docs/API.md is generated from it),
  ` + "`internal/server`" + ` serves it with per-tenant auth scoping and
  backpressure mapped to 429s, and ` + "`internal/client`" + ` is the Go client
  with resume-after-accepted retries. ` + "`cmd/leased`" + ` is the daemon;
  docs/OPERATIONS.md is the operator guide.
- **Durability** (` + "`internal/wal`" + `): the segmented, CRC-framed,
  fsync-batched write-ahead log under the engine — every acknowledged
  open, event batch and close is logged before it is applied, recovery
  rebuilds every session from spec + logged history (byte-identical to
  a Replay), torn tails are truncated rather than replayed, and
  snapshot compaction reclaims closed sessions. docs/DURABILITY.md is
  generated from it; ` + "`leaseload -kill`" + ` drills kill-and-recover.
- **Algorithms** (` + "`internal/parking`, `internal/setcover`," + `
  ` + "`internal/facility`, `internal/deadline`, `internal/steiner`," + `
  ` + "`internal/coverext`" + `): online algorithms, offline optima and
  lower-bound adversaries, one package per chapter or extension.
- **Substrate** (` + "`internal/lease`, `internal/lp`, `internal/ilp`," + `
  ` + "`internal/graph`, `internal/metric`, `internal/workload`," + `
  ` + "`internal/core`" + `): lease stores, LP/ILP solvers, instance
  generators and demand streams shared by the algorithm packages.
- **Harness** (` + "`internal/sim`, `internal/stats`," + `
  ` + "`internal/experiments`" + `): the deterministic parallel trial engine
  (trials fan out across a worker pool; tables are byte-identical for any
  worker count), the statistics toolkit, and the experiment registry.
  Every online run in the registry goes through the stream driver.
- **Tools** (` + "`cmd/leasebench`, `cmd/leasereport`, `cmd/leasesim`," + `
  ` + "`cmd/leasegen`, `cmd/leaseload`, `cmd/leased`" + `): regenerate tables
  (plus ` + "`-json`" + ` benchmark reports), regenerate these docs and
  docs/API.md (` + "`leasereport -check`" + ` gates drift), replay traces through
  the unified API, generate traces, load-test the serving stack
  (in-process or, with ` + "`-nodes`" + `, over HTTP, optionally durable and
  replicated; throughput + latency percentiles, committed as
  BENCH_PR3.json / BENCH_PR4.json), and run the network-facing lease
  daemon (see docs/OPERATIONS.md).

## Experiment index

Every evaluation artifact of the thesis is one registered experiment; the
registry (internal/experiments) is the single source of truth and this
index is generated from it. Measured results live in EXPERIMENTS.md.

| ID | Chapter | Paper artifact | Predicted | Summary |
| --- | --- | --- | --- | --- |
`)
	for _, e := range registry {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
			e.ID, e.Chapter, e.Paper, e.Predicted, e.Summary)
	}
	b.WriteString(`
## Determinism contract

Every table is a pure function of the base seed: trial i of a sweep draws
from its own generator seeded via sim.TrialSeed, results are aggregated in
trial order, and map-order or scheduling effects are kept out of the
tables. This is what lets EXPERIMENTS.md be regenerated byte-identically
on any machine and any GOMAXPROCS.
`)
	return b.Bytes()
}

// ExperimentsMarkdown runs every registered experiment under cfg and
// renders EXPERIMENTS.md: the paper-predicted bound next to the measured
// table, per experiment. The header records the exact configuration so a
// -check run with different flags fails instead of comparing apples to
// oranges.
func ExperimentsMarkdown(cfg Config) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(GeneratedHeader)
	mode := "full"
	if cfg.Quick {
		mode = "quick"
	}
	fmt.Fprintf(&b, `# EXPERIMENTS — paper-predicted vs measured

Mode: %s, seed %d. Regenerate with `+"`go run ./cmd/leasereport"+`%s -seed %d`+"`"+`;
verify with the same command plus `+"`-check`"+`. Tables are identical for
any worker count.
`, mode, cfg.Seed, quickFlag(cfg.Quick), cfg.Seed)
	for _, e := range registry {
		tb, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		fmt.Fprintf(&b, "\n## %s — %s\n\n", e.ID, e.Summary)
		fmt.Fprintf(&b, "- **Paper artifact:** %s (chapter %s)\n", e.Paper, e.Chapter)
		fmt.Fprintf(&b, "- **Predicted:** %s\n", e.Predicted)
		fmt.Fprintf(&b, "- **Measured** (%s):\n\n", tb.Title)
		if err := tb.Markdown(&b); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

func quickFlag(quick bool) string {
	if quick {
		return " -quick"
	}
	return ""
}
