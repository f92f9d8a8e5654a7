// Package leasing is a from-scratch Go implementation of the online
// resource-leasing algorithms of Christine Markarian's thesis "Online
// Resource Leasing" (PODC 2015): the Parking Permit Problem, Set
// (Multi)Cover Leasing, Facility Leasing, and Online Leasing with
// Deadlines, together with exact offline optima, lower-bound adversaries,
// and an experiment harness that regenerates every bound in the thesis.
//
// # The model
//
// Time is a sequence of discrete steps. A resource is not bought once but
// leased: a lease configuration (LeaseConfig) declares K lease types, each
// with a duration l_k and a price c_k, where longer leases cost less per
// step but more up front. Demands arrive online; algorithms must commit to
// leases without knowing the future, and are measured by their competitive
// ratio against the offline optimum.
//
// All online algorithms operate in the interval model (thesis Def. 2.5):
// lease lengths are powers of two and a type-k lease starts at a multiple
// of l_k. RoundToIntervalModel and ExpandToGeneral implement the
// 4-competitive transformation between the general and interval models
// (thesis Lemma 2.6).
//
// # Problems
//
//   - Parking permit (Chapter 2): one resource, demands are days that need
//     a valid lease. NewDeterministicParkingPermit is O(K)-competitive;
//     NewRandomizedParkingPermit is O(log K) in expectation;
//     ParkingPermitOptimal is the exact offline DP.
//   - Set multicover leasing (Chapter 3): elements arrive and must be
//     covered by p distinct leased sets. NewSetCoverLeaser implements the
//     O(log(δK) log n)-competitive randomized algorithm.
//   - Facility leasing (Chapter 4): clients arrive in batches and connect
//     to leased facilities in a metric. NewFacilityLeaser implements the
//     (3+K)·H_lmax-competitive two-phase primal-dual algorithm, with bids
//     over the current l_max round only (the rounds Theorem 4.5's
//     analysis decomposes along), so a step's cost stays flat in history.
//   - Leasing with deadlines (Chapter 5): demands may wait until their
//     deadline. NewDeadlineLeaser is Θ(K + d_max/l_min)-competitive;
//     NewSCLDLeaser handles set cover leasing with deadlines.
//
// # Reusable resources
//
// NewReusableStream extends the framework to reusable capacity: a pool
// of C units where a granted request occupies one unit for its usage
// duration and then returns it. Admission is strict first-fit — the
// lowest-indexed free unit serves, and a request finding the whole pool
// busy is rejected — so the grant sequence each unit sees is independent
// of lease state, and the per-unit parking-permit primal-dual rule
// provisions each unit K-competitively against ReusableOffline, the
// oracle that prices the identical grant sequence with exact per-unit
// lease planning. NewPredictiveReusableStream is the learning-augmented
// variant: given a believed per-step demand probability, uncovered
// grants buy the lease minimizing cost per expected served request.
// VerifyReusable checks any snapshot for exclusive unit occupation,
// lease-covered grants, and rejections only under a full pool.
//
// # The unified streaming API
//
// The thesis presents all of these as one framework — demands arrive
// online, the algorithm buys item-lease triples (i, k, t) — and the
// package exposes that framework directly: every online algorithm is
// constructible as a Leaser (NewParkingStream, NewSetCoverStream,
// NewFacilityStream, NewDeadlineStream, NewSCLDStream, NewSteinerStream,
// NewReusableStream)
// whose Observe consumes Events (a timestamp plus a domain payload) and
// returns Decisions (triples bought, assignments made, incremental cost).
// Cost reports the cumulative lease/service breakdown and Snapshot the
// current Solution for verification. The generic driver replays any
// demand stream through any Leaser (Replay) with per-event cost curves
// and ratio-vs-offline tracking, and merges multiple streams
// deterministically (Interleave). Traces written by cmd/leasegen are
// JSON arrays of wire events, the submit endpoint's default body;
// ReadEvents turns one into events, and cmd/leasesim and the whole
// experiment registry run on this one code path.
//
// # The multi-tenant engine
//
// NewEngine starts the sharded serving layer over the same protocol: many
// independent tenant sessions (one Leaser each) hashed across shards,
// each shard draining a batched, backpressured event queue on its own
// goroutine, with cached Cost reads, Snapshot reads computed on the
// shard in queue order, and per-shard Metrics. Per tenant the engine is
// exactly Replay — its output is byte-identical to a single-threaded
// replay for any shard count and batch size.
// cmd/leaseload load-tests it with mixed-domain tenant traffic; see
// docs/ARCHITECTURE.md for the layering.
//
// # The lease service
//
// Serve wraps an Engine in the HTTP/JSON lease service handler — the
// network boundary cmd/leased runs as a daemon — and Dial returns the
// matching Go client. Remote tenants open sessions from a
// RemoteOpenRequest (an instance spec without its demand stream, which
// a served session never reads; construction is deterministic, so the
// same spec and seed always rebuild the same algorithm), stream demands
// in as JSON arrays or binary frames, and read costs, snapshots and
// recorded runs back. Backpressure surfaces as fail-fast 429s that the client
// retries transparently, resuming after the server's accepted count. A
// remote session's result is
// byte-identical to a local single-threaded Replay. The wire protocol
// lives in internal/wire and docs/API.md is generated from it;
// docs/OPERATIONS.md is the operator guide.
//
// # Durability
//
// OpenDurableLog opens the segmented, CRC-framed write-ahead log a
// durable Engine appends to (EngineConfig.WAL): every acknowledged
// OpenSpec, Submit and CloseTenant is logged before its caller learns
// it succeeded, with optional group-committed fsync. RecoverEngine rebuilds every
// logged session into a fresh engine after a crash — the algorithm is
// reconstructed deterministically from the logged spec and the logged
// history replayed, so a recovered session's Result is byte-identical
// to a single-threaded Replay of that history. Torn tail records are
// CRC-detected and truncated rather than replayed, and snapshot
// compaction reclaims closed sessions. cmd/leased exposes this as
// -data-dir/-fsync/-compact-every, and cmd/leaseload -leased BIN
// -nodes 1 -wal fsync -kill drills SIGKILL-and-recover end to end;
// docs/DURABILITY.md (generated from internal/wal) documents the format,
// semantics and runbook.
//
// # Experiments
//
// RunExperiment regenerates any of the twenty-two experiments E1..E22
// indexed in DESIGN.md: the core experiments cover the thesis' theorems,
// lower bounds, tight examples and ablations, while E17..E22 exercise the
// extensions the thesis leaves open (Steiner tree leasing, vertex and
// edge cover leasing, capacitated facility leasing, stochastic demand,
// and the reusable-resource pool with its learning-augmented
// provisioning rule). EXPERIMENTS.md
// records paper-predicted versus measured results; both documents are
// generated from the experiment registry by cmd/leasereport, whose -check
// mode fails when they drift from the code. The cmd/leasebench tool prints
// the same tables from the command line.
//
// Everything is stdlib-only and deterministic per seed: repeated trials
// fan out across a worker pool, and every table is byte-identical for any
// worker count.
package leasing
