package wal

// The follower half of log shipping: AppendRecord validation, Rescan on
// an open log, and the invariant that a history mixing both record
// encodings — JSON open/close records and binary event records, across
// a segment rotation — re-ships to a follower that recovers the same
// sessions, with binary floats recovered bit-exact.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"leasing/internal/metric"
	"leasing/internal/stream"
)

// shipSessions copies recovered sessions into dst the way failover
// adoption does: re-encode each session's spec, history and close as
// current-format records and apply them with AppendRecord.
func shipSessions(t *testing.T, dst *Log, sessions []Session) {
	t.Helper()
	for _, sess := range sessions {
		payload, err := EncodeOpenRecord(sess.Tenant, sess.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.AppendRecord(KindOpen, payload); err != nil {
			t.Fatal(err)
		}
		if len(sess.Events) > 0 {
			payload, err = AppendEventsRecord(nil, sess.Tenant, sess.Events)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.AppendRecord(KindEventsBinary, payload); err != nil {
				t.Fatal(err)
			}
		}
		if sess.Closed {
			payload, err = EncodeCloseRecord(sess.Tenant)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.AppendRecord(KindClose, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAppendRecordMatchesLocalWrites: the encode helpers produce the
// exact bytes the Log* methods append, so a follower fed (kind, payload)
// pairs ends up with byte-identical segment files.
func TestAppendRecordMatchesLocalWrites(t *testing.T) {
	evs := append(dayEvents(0, 1, 2), elemEvents(4, 9)...)

	primaryDir, followerDir := t.TempDir(), t.TempDir()
	primary := mustOpen(t, primaryDir, Options{})
	follower := mustOpen(t, followerDir, Options{})

	if err := primary.LogOpen("a", []byte(`{"domain":"parking"}`)); err != nil {
		t.Fatal(err)
	}
	if err := primary.LogEvents("a", evs); err != nil {
		t.Fatal(err)
	}
	if err := primary.LogClose("a"); err != nil {
		t.Fatal(err)
	}

	open, err := EncodeOpenRecord("a", []byte(`{"domain":"parking"}`))
	if err != nil {
		t.Fatal(err)
	}
	events, err := AppendEventsRecord(nil, "a", evs)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := EncodeCloseRecord("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		kind    byte
		payload []byte
	}{{KindOpen, open}, {KindEventsBinary, events}, {KindClose, cls}} {
		if err := follower.AppendRecord(rec.kind, rec.payload); err != nil {
			t.Fatal(err)
		}
	}

	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	pb, err := os.ReadFile(segPath(primaryDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(segPath(followerDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(pb) != string(fb) {
		t.Fatalf("follower segment diverged from primary:\nprimary  %d bytes\nfollower %d bytes", len(pb), len(fb))
	}
}

// TestAppendRecordRejectsBadRecords: a corrupt shipped record is
// refused with ErrBadRecord before touching the log, so one bad ship
// cannot poison a follower.
func TestAppendRecordRejectsBadRecords(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	cases := map[string]struct {
		kind    byte
		payload []byte
	}{
		"unknown kind":       {99, []byte(`{}`)},
		"open not json":      {KindOpen, []byte(`nope`)},
		"binary bad framing": {KindEventsBinary, []byte{0xFF, 0xFF, 0x01}},
		"close not json":     {KindClose, []byte(`{`)},
	}
	for name, c := range cases {
		if err := l.AppendRecord(c.kind, c.payload); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
		}
	}
	if got := l.Recover(); len(got) != 0 {
		t.Fatalf("rejected records leaked into the log: %+v", got)
	}
}

// TestRescanMatchesRecover: Rescan on an open log sees exactly what a
// close-and-reopen Recover would, and keeps seeing appends made after a
// previous Rescan.
func TestRescanMatchesRecover(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 256}) // force rotations
	if err := l.LogOpen("a", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for day := int64(0); day < 20; day++ {
		if err := l.LogEvents("a", dayEvents(day)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := l.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || len(first[0].Events) != 20 {
		t.Fatalf("first rescan: %+v", first)
	}

	if err := l.LogEvents("a", dayEvents(20)); err != nil {
		t.Fatal(err)
	}
	second, err := l.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if got, want := fmt.Sprintf("%#v", second), fmt.Sprintf("%#v", re.Recover()); got != want {
		t.Fatalf("rescan diverged from recover:\n rescan %s\nrecover %s", got, want)
	}
}

// TestMixedEraHistoryShipsByteExact is the replica identity check for a
// primary whose history mixes both record encodings across a segment
// rotation: JSON open and close records, then binary event records with
// floats JSON cannot carry. Recovering the primary, re-shipping every
// session to a follower and recovering that follower must reproduce the
// same sessions — and the binary float bits must survive unchanged.
func TestMixedEraHistoryShipsByteExact(t *testing.T) {
	nan := math.Float64frombits(0x7FF8_0000_CAFE_F00D)
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 64}) // rotate across segments
	for _, step := range []func() error{
		func() error { return l.LogOpen("old", []byte(`{"domain":"parking"}`)) },
		func() error { return l.LogEvents("old", dayEvents(0, 1, 2)) },
		func() error { return l.LogOpen("done", []byte(`{}`)) },
		func() error { return l.LogClose("done") },
		func() error { return l.LogEvents("old", dayEvents(3)) },
		func() error { return l.LogOpen("new", []byte(`{"domain":"deadline"}`)) },
		func() error {
			return l.LogEvents("new", []stream.Event{
				{Time: 0, Payload: stream.Batch{Clients: []metric.Point{
					{X: nan, Y: math.Copysign(0, -1)},
					{X: math.MaxFloat64, Y: math.SmallestNonzeroFloat64},
				}}},
			})
		},
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if idxs, err := listSegments(dir); err != nil || len(idxs) < 2 {
		t.Fatalf("history did not span a rotation: segments %v, %v", idxs, err)
	}

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	primary := re.Recover()
	if len(primary) != 3 {
		t.Fatalf("primary recovered %d sessions, want 3", len(primary))
	}

	follower := mustOpen(t, t.TempDir(), Options{})
	shipSessions(t, follower, primary)
	got, err := follower.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	if gs, ps := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", primary); gs != ps {
		t.Fatalf("follower sessions diverged:\nfollower %s\nprimary  %s", gs, ps)
	}
	// %#v cannot distinguish NaN payloads: check the bits directly.
	var pts []metric.Point
	for _, sess := range got {
		if sess.Tenant == "new" {
			pts = sess.Events[0].Payload.(stream.Batch).Clients
		}
	}
	if b := math.Float64bits(pts[0].X); b != 0x7FF8_0000_CAFE_F00D {
		t.Errorf("NaN payload bits = %#x after shipping", b)
	}
	if !math.Signbit(pts[0].Y) || pts[0].Y != 0 {
		t.Errorf("negative zero lost: %v", pts[0].Y)
	}
	if pts[1].X != math.MaxFloat64 || pts[1].Y != math.SmallestNonzeroFloat64 {
		t.Errorf("extreme floats drifted: %+v", pts[1])
	}
}
