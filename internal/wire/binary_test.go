package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"leasing/internal/metric"
	"leasing/internal/stream"
)

// canonicalEvents is one event of every payload kind, already in the
// canonical form the binary encoder preserves exactly (multiplicities
// >= 1, client lists nil or non-empty).
func canonicalEvents() []stream.Event {
	return []stream.Event{
		{Time: 0, Payload: stream.Day{}},
		{Time: 3, Payload: stream.Element{Elem: 7, P: 2}},
		{Time: 4, Payload: stream.Element{Elem: 0, P: 1}},
		{Time: 5, Payload: stream.Window{D: 9}},
		{Time: 6, Payload: stream.ElementWindow{Elem: 2, D: 4}},
		{Time: 7, Payload: stream.Batch{Clients: []metric.Point{{X: 1.5, Y: -2.25}, {X: 0.1, Y: 0.2}}}},
		{Time: 8, Payload: stream.Batch{}},
		{Time: 9, Payload: stream.Connect{S: 3, T: 11}},
		{Time: 10, Payload: stream.Use{Dur: 5}},
		{Time: 11, Payload: stream.Use{Dur: 1}},
		{Time: -12, Payload: stream.Window{D: -3}},
	}
}

// jsonRoundTrip pushes events through the JSON wire encoding and back —
// the reference path the binary framing must agree with.
func jsonRoundTrip(t *testing.T, evs []stream.Event) []stream.Event {
	t.Helper()
	wevs, err := FromStreamEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(wevs)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []Event
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := StreamEvents(decoded)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestBinaryEventsRoundTrip: the binary encoding of every payload kind
// decodes back to the same stream events the JSON path produces.
func TestBinaryEventsRoundTrip(t *testing.T) {
	events := canonicalEvents()
	payload, err := AppendEventsBinary(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEventsBinary(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%#v", jsonRoundTrip(t, events))
	if got := fmt.Sprintf("%#v", back); got != want {
		t.Errorf("binary and JSON paths diverged:\n got %s\nwant %s", got, want)
	}
	reenc, err := AppendEventsBinary(nil, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, payload) {
		t.Error("re-encode of decoded events is not byte-identical")
	}
}

// TestBinaryFloatBits: client coordinates survive as raw IEEE-754 bits —
// NaN payload bits and negative zero included.
func TestBinaryFloatBits(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	events := []stream.Event{
		{Time: 1, Payload: stream.Batch{Clients: []metric.Point{
			{X: nan, Y: math.Copysign(0, -1)},
			{X: math.Inf(1), Y: math.SmallestNonzeroFloat64},
		}}},
	}
	payload, err := AppendEventsBinary(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEventsBinary(payload)
	if err != nil {
		t.Fatal(err)
	}
	got := back[0].Payload.(stream.Batch).Clients
	want := events[0].Payload.(stream.Batch).Clients
	for i := range want {
		if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
			math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
			t.Errorf("client %d bits changed: got (%x, %x), want (%x, %x)", i,
				math.Float64bits(got[i].X), math.Float64bits(got[i].Y),
				math.Float64bits(want[i].X), math.Float64bits(want[i].Y))
		}
	}
}

// TestBinaryCanonicalization: the encoder applies exactly the
// normalizations a JSON round trip does — zero multiplicity becomes 1,
// an empty client list becomes null, a nil payload becomes a day — so
// the two paths agree even on non-canonical inputs.
func TestBinaryCanonicalization(t *testing.T) {
	events := []stream.Event{
		{Time: 1, Payload: stream.Element{Elem: 3, P: 0}},
		{Time: 2, Payload: stream.Batch{Clients: []metric.Point{}}},
		{Time: 3, Payload: nil},
		{Time: 4, Payload: stream.Use{Dur: 0}},
	}
	payload, err := AppendEventsBinary(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEventsBinary(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", back), fmt.Sprintf("%#v", jsonRoundTrip(t, events)); got != want {
		t.Errorf("normalization diverged from the JSON path:\n got %s\nwant %s", got, want)
	}
}

// TestBinaryWireEncoderIdentity: encoding from wire.Event (the client's
// path) is byte-identical to encoding the converted stream events (the
// reference path).
func TestBinaryWireEncoderIdentity(t *testing.T) {
	events := canonicalEvents()
	// Include the wire-side non-canonical case: P omitted (0) on the wire
	// defaults to multiplicity 1 in both encoders.
	wevs, err := FromStreamEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	wevs = append(wevs, Event{Time: 10, Kind: KindElement, Elem: 4})
	sevs, err := StreamEvents(wevs)
	if err != nil {
		t.Fatal(err)
	}
	fromWire, err := AppendEventsBinaryWire(nil, wevs)
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := AppendEventsBinary(nil, sevs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromWire, fromStream) {
		t.Errorf("wire and stream encoders diverged:\n wire   %x\n stream %x", fromWire, fromStream)
	}
}

// TestBinaryEventReaderChunks: EventReader decodes a frame payload in
// bounded runs and lands on the same events as the one-shot decode.
func TestBinaryEventReaderChunks(t *testing.T) {
	events := canonicalEvents()
	payload, err := AppendEventsBinary(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	var r EventReader
	if err := r.Init(payload); err != nil {
		t.Fatal(err)
	}
	var got []stream.Event
	for r.Remaining() > 0 {
		// A batch that is never Reset owns its payloads, so each chunk
		// gets a fresh one and its events stay valid.
		var eb EventBatch
		n, err := r.Next(&eb, 3)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("Next returned 0 with events remaining")
		}
		got = append(got, eb.Events...)
	}
	want := fmt.Sprintf("%#v", jsonRoundTrip(t, events))
	if g := fmt.Sprintf("%#v", got); g != want {
		t.Errorf("chunked decode diverged:\n got %s\nwant %s", g, want)
	}
}

// TestAPIMarkdownListsEveryBinaryKind: docs/API.md's kind table has a
// row for every payload kind, with the kind byte the encoder writes, and
// the test's events cover every kind byte the decoder accepts — so a
// new kind cannot reach the decoder without its documentation row.
func TestAPIMarkdownListsEveryBinaryKind(t *testing.T) {
	doc := string(APIMarkdown())
	encoded := map[byte]bool{}
	for _, ev := range canonicalEvents() {
		buf, err := AppendEventBinary(nil, ev)
		if err != nil {
			t.Fatal(err)
		}
		w, err := FromStreamEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		encoded[buf[0]] = true
		if row := fmt.Sprintf("| `%s` | %d |", w.Kind, buf[0]); !strings.Contains(doc, row) {
			t.Errorf("API markdown has no kind row %q", row)
		}
	}
	for b := 0; b < 256; b++ {
		var eb EventBatch
		if _, err := eb.decodeEvent([]byte{byte(b), 0, 0, 0, 0}); err == nil && !encoded[byte(b)] {
			t.Errorf("decoder accepts kind byte %d, but no test event encodes it", b)
		}
	}
}

// TestBinaryCorruptFrames: truncated and corrupt frame payloads error —
// wrapped in ErrBinary, never a panic — before any oversized allocation.
func TestBinaryCorruptFrames(t *testing.T) {
	good, err := AppendEventsBinary(nil, canonicalEvents())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty payload":              {},
		"bad count varint":           {0x80},
		"count exceeds frame":        {0xff, 0xff, 0xff, 0xff, 0x0f, binDay, 0},
		"unknown kind":               {1, 99, 0},
		"truncated event":            good[:len(good)-1],
		"truncated time":             {1, binDay, 0x80},
		"bad presence byte":          {1, binBatch, 0, 7},
		"truncated use duration":     {1, binUse, 0, 0x80},
		"client count exceeds frame": {1, binBatch, 0, 1, 0xff, 0xff, 0x03},
		"trailing bytes":             append(append([]byte{}, good...), 0),
		"truncated clients":          {1, binBatch, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeEventsBinary(payload); err == nil {
				t.Error("corrupt payload decoded without error")
			}
		})
	}
}

// FuzzBinaryRoundTrip drives the decoder with arbitrary bytes: it must
// error (never panic) on garbage, and whatever it does accept must
// re-encode canonically — encode(decode(x)) is a fixed point, and the
// canonical events agree with a JSON round trip. Seeds include real
// encoder output, for which decode must reproduce the input bytes
// exactly.
func FuzzBinaryRoundTrip(f *testing.F) {
	seed, err := AppendEventsBinary(nil, canonicalEvents())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	one, err := AppendEventsBinary(nil, []stream.Event{{Time: 1, Payload: stream.Element{Elem: 2, P: 3}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(one)
	use, err := AppendEventsBinary(nil, []stream.Event{
		{Time: 2, Payload: stream.Use{Dur: 3}},
		{Time: 4, Payload: stream.Use{Dur: math.MaxInt64}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(use)
	f.Add([]byte{})
	f.Add([]byte{1, binBatch, 0, 1, 0xff})
	f.Add([]byte{1, binUse, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeEventsBinary(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Whatever decoded re-encodes to a canonical byte string...
		enc1, err := AppendEventsBinary(nil, evs)
		if err != nil {
			t.Fatalf("decoded events failed to encode: %v", err)
		}
		// ...which is a fixed point of decode/encode...
		evs2, err := DecodeEventsBinary(enc1)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		enc2, err := AppendEventsBinary(nil, evs2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Errorf("encode(decode(x)) is not a fixed point:\n first  %x\n second %x", enc1, enc2)
		}
		// ...and whose events agree with the JSON wire path exactly. The
		// binary encoding is strictly wider than JSON on floats (it carries
		// NaN and infinite coordinates, which encoding/json rejects), so
		// the cross-check only applies to JSON-representable events.
		if jsonRepresentable(evs2) {
			if got, want := fmt.Sprintf("%#v", jsonRoundTrip(t, evs2)), fmt.Sprintf("%#v", evs2); got != want {
				t.Errorf("canonical events diverge from their JSON round trip:\n json   %s\n binary %s", got, want)
			}
		}
	})
}

// jsonRepresentable reports whether every float in evs is finite, i.e.
// whether encoding/json can carry the events at all.
func jsonRepresentable(evs []stream.Event) bool {
	for _, ev := range evs {
		if b, ok := ev.Payload.(stream.Batch); ok {
			for _, c := range b.Clients {
				if math.IsNaN(c.X) || math.IsInf(c.X, 0) || math.IsNaN(c.Y) || math.IsInf(c.Y, 0) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzBinaryUseDuration drives the usage-duration decoder across the
// full int64 range — zero, negative, MaxInt64, and overlapping returns
// inside one frame: the encoder must clamp every duration to >= 1, the
// round trip must be a byte fixed point, and the binary path must agree
// with the JSON wire path event for event.
func FuzzBinaryUseDuration(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0))
	f.Add(int64(1), int64(1), int64(math.MaxInt64))
	f.Add(int64(5), int64(-3), int64(7))            // negative duration
	f.Add(int64(9), int64(math.MaxInt64), int64(2)) // saturating usage, then overlap
	f.Add(int64(-4), int64(6), int64(6))            // overlapping identical returns
	f.Fuzz(func(t *testing.T, tm, durA, durB int64) {
		events := []stream.Event{
			{Time: tm, Payload: stream.Use{Dur: durA}},
			{Time: tm, Payload: stream.Use{Dur: durB}},
		}
		payload, err := AppendEventsBinary(nil, events)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := DecodeEventsBinary(payload)
		if err != nil {
			t.Fatalf("decode of encoder output: %v", err)
		}
		for i, want := range []int64{durA, durB} {
			if want < 1 {
				want = 1
			}
			if got := back[i].Payload.(stream.Use); got.Dur != want {
				t.Errorf("event %d: duration %d decoded as %d, want clamp to %d",
					i, events[i].Payload.(stream.Use).Dur, got.Dur, want)
			}
		}
		reenc, err := AppendEventsBinary(nil, back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, payload) {
			t.Errorf("re-encode not byte-identical:\n first  %x\n second %x", payload, reenc)
		}
		if got, want := fmt.Sprintf("%#v", jsonRoundTrip(t, back)), fmt.Sprintf("%#v", back); got != want {
			t.Errorf("binary and JSON paths diverged:\n json   %s\n binary %s", got, want)
		}
	})
}

// allocBudgets pins the hot binary paths' allocation behavior. These are
// exact budgets, not ceilings to grow into: the zero rows are the
// zero-alloc submit path the server relies on, and a regression fails
// CI.
var allocBudgets = []struct {
	name   string
	budget float64 // allocations per operation
	run    func(b *benchState)
}{
	{"decode-frame/warm-batch", 0, func(b *benchState) {
		b.eb.Reset()
		var r EventReader
		if err := r.Init(b.payload); err != nil {
			panic(err)
		}
		for r.Remaining() > 0 {
			if _, err := r.Next(b.eb, 1024); err != nil {
				panic(err)
			}
		}
	}},
	{"encode-frame/warm-buffer", 0, func(b *benchState) {
		var err error
		b.buf, err = AppendEventsBinary(b.buf[:0], b.events)
		if err != nil {
			panic(err)
		}
	}},
	{"encode-frame-wire/warm-buffer", 0, func(b *benchState) {
		var err error
		b.buf, err = AppendEventsBinaryWire(b.buf[:0], b.wevents)
		if err != nil {
			panic(err)
		}
	}},
}

type benchState struct {
	payload []byte
	events  []stream.Event
	wevents []Event
	eb      *EventBatch
	buf     []byte
}

func newBenchState(t testing.TB) *benchState {
	var events []stream.Event
	for i := 0; i < 64; i++ {
		events = append(events, canonicalEvents()...)
	}
	payload, err := AppendEventsBinary(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	wevents, err := FromStreamEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	return &benchState{
		payload: payload,
		events:  events,
		wevents: wevents,
		eb:      &EventBatch{},
	}
}

// TestBinaryAllocBudgets is the allocation-regression gate: every hot
// binary path must stay within its committed budget (today: zero
// allocations per operation once buffers and arenas are warm).
func TestBinaryAllocBudgets(t *testing.T) {
	for _, tc := range allocBudgets {
		t.Run(tc.name, func(t *testing.T) {
			state := newBenchState(t)
			tc.run(state) // warm the arenas and buffers
			if got := testing.AllocsPerRun(100, func() { tc.run(state) }); got > tc.budget {
				t.Errorf("%s allocates %.1f per run, budget %.1f", tc.name, got, tc.budget)
			}
		})
	}
}

// BenchmarkBinaryDecodeFrame reports the steady-state decode cost of
// the server's submit path (per event).
func BenchmarkBinaryDecodeFrame(b *testing.B) {
	state := newBenchState(b)
	n := len(state.events)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocBudgets[0].run(state)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}
