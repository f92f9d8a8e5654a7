package wal

// The generated durability reference. docs/DURABILITY.md is rendered
// from this package by cmd/leasereport — the record format section comes
// from the same constants and record structs the log writes, and the
// fsync trade-off section is quantified from the committed
// BENCH_PR5.json — so the document cannot drift from the implementation.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
)

// FsyncBench summarizes one leaseload durable-engine run, the half of a
// BenchPair DurabilityMarkdown quantifies the fsync trade-off from.
type FsyncBench struct {
	EventsPerSec float64 `json:"events_per_sec"`
	Latency      struct {
		P50 float64 `json:"p50"`
		P99 float64 `json:"p99"`
	} `json:"submit_latency_us"`
}

// BenchPair is the committed fsync-on/off throughput pair of
// BENCH_PR5.json: the `leaseload -wal nosync` and `-wal fsync` runs of
// one workload.
type BenchPair struct {
	On  FsyncBench `json:"fsync_on"`
	Off FsyncBench `json:"fsync_off"`
}

// LoadBenchPair reads a committed BENCH_PR5.json. It is shared by
// cmd/leasereport and the docs drift tests so both quantify the
// generated document from the same bytes.
func LoadBenchPair(path string) (*BenchPair, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p BenchPair
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return &p, nil
}

// DurabilityMarkdown renders the body of docs/DURABILITY.md: the WAL
// record format (from this package's constants and record structs),
// recovery semantics, the fsync/throughput trade-off (quantified from
// bench when non-nil), and the crash-recovery runbook. The output is a
// pure function of (this package, bench), which is what lets
// `leasereport -check` gate drift.
func DurabilityMarkdown(bench *BenchPair) []byte {
	var b bytes.Buffer
	b.WriteString(`# Durability — the write-ahead log and crash recovery

The lease service survives crashes by write-ahead logging: every
acknowledged open, event batch and close is in a segmented, CRC-framed
log (` + "`internal/wal`" + `) **before its caller learns it succeeded** —
event batches and closes are appended before the engine even applies
them — and on startup the daemon rebuilds every tenant session by
replaying the log. Because a session is a pure function of its open spec and its
time-ordered events (the event-sourced shape of the stream protocol),
recovery never deserializes algorithm state — it rebuilds the algorithm
from the spec and replays the history, and the recovered session is
byte-identical to a single-threaded ` + "`Replay`" + ` of the logged events.
` + "`leaseload -leased <binary> -nodes 1 -wal fsync -kill`" + ` proves that end
to end by SIGKILLing a daemon mid-load, restarting it, finishing the run
and verifying every tenant.

This reference is generated from ` + "`internal/wal`" + ` by ` + "`cmd/leasereport`" + `
(the ` + "`-check`" + ` gate keeps it byte-identical to the code). The operator
view — flags, data-dir layout, backup and restore — is in
[OPERATIONS.md](OPERATIONS.md); the layer diagram is in
[ARCHITECTURE.md](ARCHITECTURE.md).

## On-disk layout

A log is a directory of numbered segment files:

`)
	fmt.Fprintf(&b, "```\n<data-dir>/\n  %08d.wal      first live segment\n  %08d.wal      ...\n  %08d.wal      active segment (appends go here)\n  compact.tmp       compaction scratch (transient; deleted on open)\n  LOCK              exclusive single-writer flock (unix only; a second process fails fast)\n```\n\nThe LOCK flock is advisory and unix-only: on platforms without flock\nthe file is not locked, and running one writer per data directory is\nthe operator's responsibility.\n\n", 1, 2, 3)
	fmt.Fprintf(&b, `Appends go to the highest-numbered segment; once it grows past the
rotation threshold (Options.SegmentBytes, default 4 MiB) the log
retires it and continues in the next index. Segment files are never
modified after retirement — the only in-place mutation the log ever
performs is truncating a torn tail on open.

## Segment format

Every segment starts with a %d-byte header:

| Offset | Size | Field |
| --- | --- | --- |
| 0 | 8 | magic %q |
| 8 | 4 | format version (little-endian uint32; this build writes and reads %d) |
| 12 | 4 | flags (little-endian uint32; bit 0 = compaction snapshot) |

A reader rejects a bad magic or any other version outright — a future
format bump is a clean error, never a misparse. The version-1 format
(JSON event records) predates the binary events record (kind %d) and is
refused the same way: no build since version 2 writes, compacts or
ships it. Version %d keeps version 2's framing byte for byte; it marks
logs written since facility sessions bid over the current l_max round
only (the zero value of the facility options), where version-2 builds
bid over every client the session had seen. Recovery rebuilds a
session from its logged open spec, and the same facility spec now
builds the round-reset rule, so replaying a version-2 log would
disagree with what the old build applied live. The open spec cannot
carry the difference — a spec without the field must mean round reset
for new opens, so it cannot also mean the old rule in an old log — so
version 2 is refused too: drain a version-2 data directory, or recover
it with the build that wrote it, before starting this one on it. The
snapshot flag marks
a segment written by compaction: it supersedes every lower-numbered
segment, so recovery starts at the newest snapshot and deletes anything
older.

Records follow the header back to back, each framed as:

| Offset | Size | Field |
| --- | --- | --- |
| 0 | 4 | body length (little-endian uint32, 1..%d) |
| 4 | 4 | CRC-32C (Castagnoli) of the body |
| 8 | length | body: 1 kind byte + the kind's payload (JSON for kinds 1 and 3, binary for kind 4) |

## Record types

The kind 1 and 3 payloads are JSON, with the open spec in the
encoding of `+"`internal/wire`"+` — the same single source of truth the HTTP
protocol speaks — and the kind-4 payload reuses its binary event encoding (the
`+"`application/x-lease-binary`"+` frame payload, see docs/API.md), so the
log, the wire and the recovery replay can never disagree about what an
event is.

`, SegHeaderSize, SegMagic, SegVersion, KindEventsBinary, SegVersion,
		MaxRecordBytes)
	for _, rec := range []struct {
		kind byte
		name string
		v    any
		when string
	}{
		{KindOpen, "OpenRecord", OpenRecord{}, "appended by the owning shard as it installs the session — after the duplicate check (racing opens log only the winning spec) and before the session is visible to submits, so a tenant's open record always precedes its event records"},
		{KindClose, "CloseRecord", CloseRecord{}, "appended before a session is sealed"},
	} {
		fmt.Fprintf(&b, "### kind %d — `%s`\n\n%s.\n\n| Field | Type | Description |\n| --- | --- | --- |\n", rec.kind, rec.name, rec.when)
		t := reflect.TypeOf(rec.v)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			fmt.Fprintf(&b, "| `%s` | %s | %s |\n", name, recJSONType(f.Type), f.Tag.Get("doc"))
		}
		b.WriteString("\n")
	}

	fmt.Fprintf(&b, `### kind %d — binary events

Appended before an acknowledged batch is enqueued, the body encoded
directly from the in-memory events with no JSON round-trip. The payload
after the kind byte is:

| Field | Type | Description |
| --- | --- | --- |
| tenant length | uvarint | byte length of the tenant name |
| tenant | bytes | the tenant name, UTF-8 |
| events | bytes | an `+"`application/x-lease-binary`"+` frame payload: uvarint event count, then the events in the wire binary event encoding (docs/API.md has the per-kind layout) |

The event encoding is canonical — it round-trips byte-identically and
decodes to exactly the values the JSON wire encoding carries (float
bits preserved, null vs empty client lists preserved) — so replaying a
kind-%d record rebuilds exactly the session that was acknowledged.

`, KindEventsBinary, KindEventsBinary)

	b.WriteString(`## Recovery semantics

On open the log scans every live segment in order and replays the
records with exactly the drop semantics the live engine has:

- an **open** installs the tenant; a duplicate open (which the live
  engine rejected) keeps the first;
- an **events** record appends to the tenant's history; events for an
  unknown or closed tenant (which the live engine dropped and counted)
  are dropped again;
- a **close** seals the tenant; recovered closed sessions stay readable
  but accept no further events.

The engine's ` + "`Restore`" + ` then replays each recovered history through a
leaser rebuilt deterministically from the logged spec — the same
spec-to-algorithm mapping the open endpoint uses — without re-logging.
Sessions whose algorithm rejected an event mid-history fail at the same
event on recovery, reproducing the pre-crash failed state.

These guarantees are stated relative to the engine's ordering contract:
a tenant's events are submitted from one goroutine, and its close is
ordered with those submits. A close racing an in-flight submit from
another goroutine leaves the raced batch's fate undefined on both sides
— the live engine may drop what recovery replays, or vice versa — just
as the race already makes the live outcome itself nondeterministic.

Because the WAL append happens before the engine enqueue, a crash can
leave a suffix of records that were logged but never acknowledged (the
response was lost with the process). Recovery replays them: after a
restart, the authoritative resume point is the tenant's processed-event
count (the ` + "`events`" + ` endpoint after a flush), not the client's last
acknowledged offset — which is how ` + "`leaseload -kill`" + ` resumes.

## Torn writes and corruption

Only the final segment may end mid-record. The scan treats a partial
frame header, a body length running past the file, or a CRC-32C
mismatch as the torn-write signature: the tail segment is **truncated
at the last whole record** (the torn suffix was never acknowledged
under ` + "`-fsync`" + `, so nothing durable is lost), and appending resumes
there. A half-created final segment (crash during rotation) is deleted
the same way. The same signatures anywhere **before** the tail mean
acknowledged records were damaged — that is data loss, and the log
refuses to open rather than silently replaying around it (restore the
directory from backup instead).

## Compaction

Compaction rewrites the whole log as one snapshot segment: per live
tenant, an open record followed by its consolidated event history. The
snapshot is written in the current segment version with binary event
records. Closed sessions are dropped — **close is the retention
boundary**, so a tenant's history is reclaimed by the first compaction
after its close (and the tenant no longer survives recovery past that
point). The rewrite is crash-safe: the snapshot is built in
` + "`compact.tmp`" + `, synced, renamed to the next segment index, and only
then are the superseded segments deleted; a crash between rename and
delete leaves both, and the snapshot flag tells recovery which to
trust. Appends block for the duration of a compaction, so tune the
cadence (` + "`leased -compact-every`" + `, in appended records) to how quickly
closed-session garbage accumulates.

## Fsync and the durability/throughput trade-off

With ` + "`-fsync`" + ` the log syncs the active segment before any append is
acknowledged, so every 2xx survives machine crashes and power loss.
Concurrent appenders share syncs (group commit): one fsync covers every
record written before it, so the cost amortizes with concurrency.
Without ` + "`-fsync`" + `, appends still go straight to the file — acknowledged
events survive a SIGKILL of the process — but an OS crash can lose the
page-cache suffix.

`)
	if bench != nil {
		fmt.Fprintf(&b, `The committed [BENCH_PR5.json](../BENCH_PR5.json)
(`+"`leaseload -wal nosync`"+` and `+"`-wal fsync`"+`, mixed-domain tenants through
a WAL-backed engine) quantifies the trade-off on the baseline hardware:

| WAL mode | Throughput | Submit p50 | Submit p99 |
| --- | --- | --- | --- |
| fsync off | %.0f events/s | %.1f µs | %.1f µs |
| fsync on (group commit) | %.0f events/s | %.1f µs | %.1f µs |

`, bench.Off.EventsPerSec, bench.Off.Latency.P50, bench.Off.Latency.P99,
			bench.On.EventsPerSec, bench.On.Latency.P50, bench.On.Latency.P99)
	} else {
		b.WriteString(`No committed BENCH_PR5.json was found next to this document, so the
trade-off is not quantified here; regenerate it with
` + "`go run ./cmd/leaseload -wal nosync -json`" + ` and
` + "`-wal fsync -json`" + `, combine the two reports as the ` + "`fsync_off`" + ` and
` + "`fsync_on`" + ` halves of BENCH_PR5.json, and then regenerate this document.

`)
	}

	b.WriteString(`## Crash-recovery runbook

1. **The daemon died (crash, OOM, SIGKILL).** Restart it with the same
   ` + "`-data-dir`" + `. It logs how many sessions and events it recovered; a
   torn tail is truncated and logged, never replayed. Clients then
   ` + "`flush`" + `, read each tenant's processed-event count, and resume
   submitting after that offset (the Go client pattern
   ` + "`leaseload -kill`" + ` uses).
2. **The log refuses to open (corruption before the tail).** Do not
   delete segments by hand — acknowledged data is gone either way, and
   the refusal tells you so. Restore the newest backup of the data
   directory and replay producers from their upstream source.
3. **Backup.** Stop appends (stop the daemon, or snapshot the
   filesystem) and copy the whole directory; segments are append-only,
   so a file-by-file copy taken while the daemon is stopped is always
   consistent. Restore = put the directory back and start the daemon.
4. **Verify a recovery.**
   ` + "`go run ./cmd/leaseload -leased <binary> -nodes 1 -wal fsync -kill`" + `
   runs the whole drill — kill mid-load, restart, resume, and
   byte-compare every tenant against a local replay of its logged
   history.
`)
	return b.Bytes()
}

// recJSONType renders a record field's JSON type for the format tables.
func recJSONType(t reflect.Type) string {
	switch t.Kind() {
	case reflect.String:
		return "string"
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return "JSON value"
		}
		return "array of `" + t.Elem().Name() + "` objects"
	case reflect.Struct:
		return "`" + t.Name() + "` object"
	default:
		return t.Kind().String()
	}
}
