package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"leasing/internal/metric"
	"leasing/internal/stream"
)

func dayEvents(times ...int64) []stream.Event {
	out := make([]stream.Event, len(times))
	for i, t := range times {
		out[i] = stream.Event{Time: t, Payload: stream.Day{}}
	}
	return out
}

func elemEvents(elems ...int) []stream.Event {
	out := make([]stream.Event, len(elems))
	for i, e := range elems {
		out[i] = stream.Event{Time: int64(i), Payload: stream.Element{Elem: e, P: 1}}
	}
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l
}

// TestRoundTrip is the core promise: what was logged is what recovers,
// with per-tenant order, specs and closed flags intact.
func TestRoundTrip(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{Fsync: fsync})
			if n := len(l.Recover()); n != 0 {
				t.Fatalf("fresh log recovered %d sessions", n)
			}
			if err := l.LogOpen("a", []byte(`{"domain":"parking"}`)); err != nil {
				t.Fatal(err)
			}
			if err := l.LogEvents("a", dayEvents(0, 1, 2)); err != nil {
				t.Fatal(err)
			}
			if err := l.LogOpen("b", []byte(`{"domain":"deadline"}`)); err != nil {
				t.Fatal(err)
			}
			if err := l.LogEvents("b", elemEvents(3, 1)); err != nil {
				t.Fatal(err)
			}
			if err := l.LogEvents("a", dayEvents(5)); err != nil {
				t.Fatal(err)
			}
			if err := l.LogClose("b"); err != nil {
				t.Fatal(err)
			}
			// Events after close and for unknown tenants drop on recovery,
			// matching the live engine.
			if err := l.LogEvents("b", dayEvents(9)); err != nil {
				t.Fatal(err)
			}
			if err := l.LogEvents("ghost", dayEvents(1)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			re := mustOpen(t, dir, Options{})
			defer re.Close()
			got := re.Recover()
			if len(got) != 2 {
				t.Fatalf("recovered %d sessions, want 2", len(got))
			}
			a, b := got[0], got[1]
			if a.Tenant != "a" || b.Tenant != "b" {
				t.Fatalf("session order %q, %q", a.Tenant, b.Tenant)
			}
			if string(a.Spec) != `{"domain":"parking"}` || a.Closed {
				t.Errorf("session a = %+v", a)
			}
			if want := dayEvents(0, 1, 2, 5); fmt.Sprintf("%#v", a.Events) != fmt.Sprintf("%#v", want) {
				t.Errorf("a events = %#v, want %#v", a.Events, want)
			}
			if !b.Closed {
				t.Error("b not closed")
			}
			if want := elemEvents(3, 1); fmt.Sprintf("%#v", b.Events) != fmt.Sprintf("%#v", want) {
				t.Errorf("b events = %#v, want %#v", b.Events, want)
			}
		})
	}
}

// TestBinaryRecordsRecoverExact: the binary events record preserves
// what JSON cannot — exact float bits (including NaN payloads and
// signed zero) and the nil-versus-empty clients distinction — across a
// log round trip.
func TestBinaryRecordsRecoverExact(t *testing.T) {
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	evs := []stream.Event{
		{Time: 0, Payload: stream.Batch{Clients: []metric.Point{
			{X: nan, Y: math.Copysign(0, -1)},
			{X: math.Inf(1), Y: math.SmallestNonzeroFloat64},
		}}},
		{Time: 1, Payload: stream.Batch{Clients: nil}},
		{Time: 2, Payload: stream.Batch{Clients: []metric.Point{}}},
		{Time: 3, Payload: stream.ElementWindow{Elem: 7, D: -4}},
	}

	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.LogOpen("a", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEvents("a", evs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	got := re.Recover()
	if len(got) != 1 || len(got[0].Events) != len(evs) {
		t.Fatalf("recovered %+v", got)
	}
	rec := got[0].Events
	pts := rec[0].Payload.(stream.Batch).Clients
	if b := math.Float64bits(pts[0].X); b != 0x7FF8_0000_DEAD_BEEF {
		t.Errorf("NaN payload bits = %#x", b)
	}
	if !math.Signbit(pts[0].Y) || pts[0].Y != 0 {
		t.Errorf("negative zero lost: %v", pts[0].Y)
	}
	if !math.IsInf(pts[1].X, 1) || pts[1].Y != math.SmallestNonzeroFloat64 {
		t.Errorf("point 1 = %+v", pts[1])
	}
	if rec[1].Payload.(stream.Batch).Clients != nil {
		t.Error("nil clients recovered non-nil")
	}
	// The canonical encoding folds empty into null, exactly like a JSON
	// round trip does.
	if rec[2].Payload.(stream.Batch).Clients != nil {
		t.Error("empty clients did not canonicalize to nil")
	}
	if want := (stream.ElementWindow{Elem: 7, D: -4}); rec[3].Payload != want {
		t.Errorf("event 3 = %#v", rec[3].Payload)
	}
}

// TestRotation forces many tiny segments and recovers across all of
// them.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 64})
	if err := l.LogOpen("a", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := l.LogEvents("a", dayEvents(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(idxs))
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	got := re.Recover()
	if len(got) != 1 || len(got[0].Events) != 50 {
		t.Fatalf("recovered %+v", got)
	}
}

// appendGarbage writes raw bytes to the end of the highest segment.
func appendGarbage(t *testing.T, dir string, b []byte) {
	t.Helper()
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segPath(dir, idxs[len(idxs)-1]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestTornTail covers the torn-write table: a partial frame header, a
// length running past EOF, a CRC mismatch, and a flipped byte inside
// the last record must all be detected and truncated — recovery sees
// exactly the whole-record prefix, and appends resume cleanly.
func TestTornTail(t *testing.T) {
	writeLog := func(t *testing.T) string {
		dir := t.TempDir()
		l := mustOpen(t, dir, Options{})
		if err := l.LogOpen("a", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := l.LogEvents("a", dayEvents(0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	tearLast := func(t *testing.T, dir string, mutate func(path string, size int64)) {
		t.Helper()
		idxs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := segPath(dir, idxs[len(idxs)-1])
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		mutate(path, fi.Size())
	}

	cases := map[string]func(t *testing.T, dir string){
		"partial frame header": func(t *testing.T, dir string) {
			appendGarbage(t, dir, []byte{1, 2, 3})
		},
		"length past eof": func(t *testing.T, dir string) {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 4096)
			appendGarbage(t, dir, hdr[:])
		},
		"absurd length": func(t *testing.T, dir string) {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], MaxRecordBytes+1)
			appendGarbage(t, dir, append(hdr[:], make([]byte, 64)...))
		},
		"crc mismatch appended": func(t *testing.T, dir string) {
			frame := frameRecord(KindClose, []byte(`{"tenant":"a"}`))
			frame[len(frame)-1] ^= 0xFF
			appendGarbage(t, dir, frame)
		},
		"flipped byte in last record": func(t *testing.T, dir string) {
			tearLast(t, dir, func(path string, size int64) {
				f, err := os.OpenFile(path, os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteAt([]byte{0xFF}, size-1); err != nil {
					t.Fatal(err)
				}
			})
		},
		"truncated mid-record": func(t *testing.T, dir string) {
			tearLast(t, dir, func(path string, size int64) {
				if err := os.Truncate(path, size-3); err != nil {
					t.Fatal(err)
				}
			})
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := writeLog(t)
			corrupt(t, dir)

			re := mustOpen(t, dir, Options{})
			got := re.Recover()
			wantEvents := 2
			if strings.Contains(name, "record") && !strings.Contains(name, "appended") {
				// The tear damaged the events record itself: only the
				// open survives.
				wantEvents = 0
			}
			if len(got) != 1 || got[0].Tenant != "a" || len(got[0].Events) != wantEvents || got[0].Closed {
				t.Fatalf("recovered %+v, want tenant a with %d events, not closed", got, wantEvents)
			}
			// The torn suffix is gone for good: appends resume and a
			// third recovery sees old prefix + new records only.
			if err := re.LogEvents("a", dayEvents(7)); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2 := mustOpen(t, dir, Options{})
			defer re2.Close()
			got2 := re2.Recover()
			if len(got2) != 1 || len(got2[0].Events) != wantEvents+1 {
				t.Fatalf("after resume recovered %+v", got2)
			}
		})
	}
}

// TestTornTailBinaryRecord: torn-write handling extends to kind-4
// records — a CRC-flipped or truncated binary events record at the
// tail is truncated away, the prefix recovers, and appends resume.
func TestTornTailBinaryRecord(t *testing.T) {
	binFrame := func(t *testing.T, tenant string, evs []stream.Event) []byte {
		t.Helper()
		payload, err := appendEventsBinaryRecord(nil, tenant, evs)
		if err != nil {
			t.Fatal(err)
		}
		return frameRecord(KindEventsBinary, payload)
	}
	cases := map[string]func(t *testing.T, dir string){
		"crc mismatch": func(t *testing.T, dir string) {
			frame := binFrame(t, "a", dayEvents(7))
			frame[len(frame)-1] ^= 0xFF
			appendGarbage(t, dir, frame)
		},
		"truncated frame": func(t *testing.T, dir string) {
			frame := binFrame(t, "a", dayEvents(7))
			appendGarbage(t, dir, frame[:len(frame)-3])
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{})
			if err := l.LogOpen("a", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			if err := l.LogEvents("a", dayEvents(0, 1)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, dir)

			re := mustOpen(t, dir, Options{})
			got := re.Recover()
			if len(got) != 1 || len(got[0].Events) != 2 {
				t.Fatalf("recovered %+v, want the two-event prefix", got)
			}
			if err := re.LogEvents("a", dayEvents(8)); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2 := mustOpen(t, dir, Options{})
			defer re2.Close()
			if got2 := re2.Recover(); len(got2) != 1 || len(got2[0].Events) != 3 {
				t.Fatalf("after resume recovered %+v", got2)
			}
		})
	}
}

// TestCorruptionBeforeTailRefuses: a damaged record in a non-final
// segment is acknowledged data loss, not a torn tail — Open must refuse
// rather than silently replay around it.
func TestCorruptionBeforeTailRefuses(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 64})
	if err := l.LogOpen("a", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.LogEvents("a", dayEvents(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) < 2 {
		t.Fatal("need at least two segments")
	}
	path := segPath(dir, idxs[0])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("open of corrupt non-tail segment: %v", err)
	}
}

// TestCorruptBinaryPayloadRefuses: a kind-4 record whose CRC checks out
// but whose payload does not decode is not a torn write — it is
// acknowledged data this build cannot replay, and Open must refuse.
func TestCorruptBinaryPayloadRefuses(t *testing.T) {
	cases := map[string][]byte{
		// Tenant length runs past the payload.
		"bad tenant length": {0xFF, 0xFF, 0x01},
		// Valid tenant "a", then an event frame with an unknown kind.
		"bad event kind": {1, 'a', 1, 99, 0},
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{})
			if err := l.LogOpen("a", []byte(`{}`)); err != nil {
				t.Fatal(err)
			}
			if err := l.LogEvents("a", dayEvents(0)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// A whole record after the damage makes the damaged record
			// non-tail, so truncation cannot paper over it.
			appendGarbage(t, dir, frameRecord(KindEventsBinary, payload))
			appendGarbage(t, dir, frameRecord(KindClose, []byte(`{"tenant":"a"}`)))

			if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "events record") {
				t.Fatalf("open over corrupt binary payload: %v", err)
			}
		})
	}
}

// TestMissingMiddleSegmentRefuses: a deleted or lost segment between
// the first live segment and the tail is a hole in acknowledged
// history; Open must refuse rather than serve sessions with silently
// missing events.
func TestMissingMiddleSegmentRefuses(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 64})
	if err := l.LogOpen("a", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.LogEvents("a", dayEvents(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) < 3 {
		t.Fatal("need at least three segments")
	}
	if err := os.Remove(segPath(dir, idxs[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("open with a missing middle segment: %v", err)
	}
}

// TestCrossVersionHeaders: future versions, bad magic and half-written
// headers each get their declared treatment.
func TestCrossVersionHeaders(t *testing.T) {
	t.Run("future version refuses", func(t *testing.T) {
		dir := t.TempDir()
		hdr := segHeader(0)
		binary.LittleEndian.PutUint32(hdr[8:12], SegVersion+1)
		if err := os.WriteFile(segPath(dir, 1), hdr, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("future-version open: %v", err)
		}
	})
	t.Run("version 1 refuses", func(t *testing.T) {
		// The JSON-era format: no build since version 2 writes, compacts
		// or ships it, so it is refused like any other version.
		dir := t.TempDir()
		hdr := segHeader(0)
		binary.LittleEndian.PutUint32(hdr[8:12], 1)
		if err := os.WriteFile(segPath(dir, 1), hdr, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("version-1 open: %v", err)
		}
	})
	t.Run("version 2 refuses", func(t *testing.T) {
		// Same framing as version 3, but its facility tenants were
		// applied under the full-history rule, which their logged open
		// specs no longer rebuild.
		dir := t.TempDir()
		hdr := segHeader(0)
		binary.LittleEndian.PutUint32(hdr[8:12], 2)
		if err := os.WriteFile(segPath(dir, 1), hdr, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("version-2 open: %v", err)
		}
	})
	t.Run("bad magic refuses", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), bytes.Repeat([]byte("x"), SegHeaderSize), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad-magic open: %v", err)
		}
	})
	t.Run("half-written final header is dropped", func(t *testing.T) {
		dir := t.TempDir()
		l := mustOpen(t, dir, Options{})
		if err := l.LogOpen("a", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate a crash during rotation: the next segment exists but
		// its header never finished.
		if err := os.WriteFile(segPath(dir, 2), []byte(SegMagic[:4]), 0o644); err != nil {
			t.Fatal(err)
		}
		re := mustOpen(t, dir, Options{})
		defer re.Close()
		if got := re.Recover(); len(got) != 1 || got[0].Tenant != "a" {
			t.Fatalf("recovered %+v", got)
		}
		if _, err := os.Stat(segPath(dir, 2)); !os.IsNotExist(err) {
			t.Error("half-written segment not deleted")
		}
	})
}

// TestCompaction: a snapshot consolidates live sessions, drops closed
// ones, supersedes old segments, and recovery after it is unchanged for
// the survivors.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 128})
	if err := l.LogOpen("keep", []byte(`{"d":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.LogOpen("gone", []byte(`{"d":2}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.LogEvents("keep", dayEvents(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := l.LogEvents("gone", dayEvents(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.LogClose("gone"); err != nil {
		t.Fatal(err)
	}
	before, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st := l.Stats(); st.Compactions != 1 {
		t.Errorf("stats = %+v", st)
	}
	after, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 || after[0] <= before[len(before)-1] {
		t.Fatalf("segments after compaction: %v (before %v)", after, before)
	}
	// Appends continue post-compaction.
	if err := l.LogEvents("keep", dayEvents(99)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	got := re.Recover()
	if len(got) != 1 || got[0].Tenant != "keep" {
		t.Fatalf("recovered %+v, want only the live tenant", got)
	}
	if len(got[0].Events) != 21 || got[0].Events[20].Time != 99 {
		t.Fatalf("keep history = %d events", len(got[0].Events))
	}
}

// TestAutoCompaction: CompactEvery triggers without an explicit call.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{CompactEvery: 10})
	if err := l.LogOpen("a", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := l.LogEvents("a", dayEvents(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Compactions < 2 {
		t.Fatalf("stats = %+v, want >= 2 automatic compactions", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if got := re.Recover(); len(got) != 1 || len(got[0].Events) != 25 {
		t.Fatalf("recovered %+v", got)
	}
}

// TestConcurrentAppends exercises the group-commit path under -race:
// many tenants appending from their own goroutines, everything
// recoverable afterwards.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Fsync: true, SegmentBytes: 4096})
	const tenants, events = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := l.LogOpen(name, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			for j := 0; j < events; j++ {
				if err := l.LogEvents(name, dayEvents(int64(j))); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != tenants*events+tenants {
		t.Errorf("appends = %d", st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	got := re.Recover()
	if len(got) != tenants {
		t.Fatalf("recovered %d sessions", len(got))
	}
	for _, s := range got {
		if len(s.Events) != events {
			t.Errorf("%s: %d events", s.Tenant, len(s.Events))
		}
		for j, ev := range s.Events {
			if ev.Time != int64(j) {
				t.Errorf("%s: event %d at time %d", s.Tenant, j, ev.Time)
				break
			}
		}
	}
}

// TestAppendAfterCloseFails pins the ErrLogClosed contract.
func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.LogClose("a"); err != ErrLogClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestStrayCompactTmpRemoved: a crash mid-compaction leaves the scratch
// file; Open must clean it up and recover from the real segments.
func TestStrayCompactTmpRemoved(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.LogOpen("a", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, compactTmp)
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("compact.tmp survived Open")
	}
	if got := re.Recover(); len(got) != 1 {
		t.Fatalf("recovered %+v", got)
	}
}

// TestDurabilityMarkdown sanity-checks the generated reference: it is a
// pure function of (package, bench) and names the load-bearing pieces.
func TestDurabilityMarkdown(t *testing.T) {
	bench := &BenchPair{}
	bench.On.EventsPerSec = 1000
	bench.Off.EventsPerSec = 2000
	doc := string(DurabilityMarkdown(bench))
	for _, want := range []string{
		SegMagic, "CRC-32C", "OpenRecord", "CloseRecord",
		"version-1", "binary events", "application/x-lease-binary",
		"snapshot", "torn", "last whole record",
		"group commit", "BENCH_PR5.json", "OPERATIONS.md", "ARCHITECTURE.md",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("DurabilityMarkdown missing %q", want)
		}
	}
	if !bytes.Equal(DurabilityMarkdown(bench), DurabilityMarkdown(bench)) {
		t.Error("DurabilityMarkdown is not deterministic")
	}
	if bytes.Equal(DurabilityMarkdown(bench), DurabilityMarkdown(nil)) {
		t.Error("bench numbers do not reach the document")
	}
}

// FuzzReadRecord fuzzes the record parser: arbitrary bytes must never
// panic, a successful parse must stay in bounds, and a parsed record
// must re-frame to bytes that parse back identically.
func FuzzReadRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(frameRecord(KindOpen, []byte(`{"tenant":"a","spec":{}}`)))
	days, err := appendEventsBinaryRecord(nil, "a", dayEvents(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameRecord(KindEventsBinary, days))
	f.Add(append(frameRecord(KindClose, []byte(`{"tenant":"a"}`)), 0xDE, 0xAD))
	torn := frameRecord(KindClose, []byte(`{"tenant":"b"}`))
	f.Add(torn[:len(torn)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, n, err := parseRecord(data)
		if err != nil {
			return
		}
		if n < RecHeaderSize+1 || n > len(data) {
			t.Fatalf("parsed size %d out of bounds (len %d)", n, len(data))
		}
		re := frameRecord(kind, payload)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-framed record differs: %x vs %x", re, data[:n])
		}
		k2, p2, n2, err := parseRecord(re)
		if err != nil || k2 != kind || n2 != n || !bytes.Equal(p2, payload) {
			t.Fatalf("round trip: kind %d->%d n %d->%d err %v", kind, k2, n, n2, err)
		}
	})
}
