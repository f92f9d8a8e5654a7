package wire

// The binary framing of the wire protocol: a compact, length-prefixed
// encoding of event batches, negotiated per submit request via
// Content-Type with ContentTypeBinary. JSON remains the default and the
// documentation source of truth; the binary framing exists for the hot
// ingestion path, where it decodes straight into stream.Event values —
// no intermediate wire.Event, no map[string]any, and (through
// EventBatch's payload arenas) zero allocations per event in steady
// state.
//
// The encoding is canonical: every encoder normalizes exactly the way a
// JSON round-trip does (an element's zero multiplicity becomes 1, an
// empty client list becomes null, a nil payload becomes a day), so
// encode(decode(encode(x))) is byte-identical to encode(x) and the
// binary and JSON paths produce the same stream.Event values. Floats
// travel as raw IEEE-754 bits, so every float round-trips exactly —
// including NaN payloads and negative zero. Integers travel as zigzag
// varints, lengths as plain uvarints.
//
// Layout of one submit body (Content-Type: application/x-lease-binary):
//
//	magic "LEB1"
//	frame*            one frame per chunk; decoded and enqueued as read
//
// where each frame is
//
//	uvarint payload-length
//	payload = uvarint event-count, then event-count events
//
// and each event is
//
//	byte kind (1..7)
//	varint time (zigzag)
//	kind fields:
//	  day            -
//	  element        varint elem, varint p (encoder writes max(p, 1))
//	  window         varint d
//	  element_window varint elem, varint d
//	  batch          byte presence (0 = null), then uvarint count and
//	                 count * (8-byte LE x bits, 8-byte LE y bits)
//	  connect        varint s, varint u
//	  use            varint dur (encoder writes max(dur, 1))
//
// The replication endpoint reuses the same magic and frames, with one
// write-ahead-log record per frame.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"leasing/internal/metric"
	"leasing/internal/stream"
)

// ContentTypeBinary is the media type of the binary framing: as a
// submit Content-Type it switches ingestion to binary frames.
const ContentTypeBinary = "application/x-lease-binary"

// BinaryMagic opens every binary submit body, so a JSON array posted
// with the wrong Content-Type fails fast instead of misparsing.
const BinaryMagic = "LEB1"

// MaxFrameBytes bounds one frame's payload; a larger declared length is
// rejected as corruption before any buffer is sized from it.
const MaxFrameBytes = 16 << 20

// Binary payload kind bytes, one per stream payload type (the binary
// twin of the Kind* strings).
const (
	binDay byte = iota + 1
	binElement
	binWindow
	binElementWindow
	binBatch
	binConnect
	binUse
)

// ErrBinary wraps every binary-decode failure: truncated or corrupt
// frames error (never panic) and callers can classify them with
// errors.Is.
var ErrBinary = errors.New("wire: bad binary frame")

func binErrf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBinary}, args...)...)
}

// AppendEventBinary appends ev's canonical binary encoding to dst. The
// same normalizations a JSON round-trip performs are applied here: a
// nil payload encodes as a day, an element's zero multiplicity encodes
// as 1, and an empty (but non-nil) client list encodes as null.
func AppendEventBinary(dst []byte, ev stream.Event) ([]byte, error) {
	switch p := ev.Payload.(type) {
	case nil, stream.Day:
		dst = append(dst, binDay)
		dst = binary.AppendVarint(dst, ev.Time)
	case stream.Element:
		dst = append(dst, binElement)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, int64(p.Elem))
		dst = binary.AppendVarint(dst, int64(max(p.P, 1)))
	case stream.Window:
		dst = append(dst, binWindow)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, p.D)
	case stream.ElementWindow:
		dst = append(dst, binElementWindow)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, int64(p.Elem))
		dst = binary.AppendVarint(dst, p.D)
	case stream.Batch:
		dst = append(dst, binBatch)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = appendClients(dst, p.Clients)
	case stream.Connect:
		dst = append(dst, binConnect)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, int64(p.S))
		dst = binary.AppendVarint(dst, int64(p.T))
	case stream.Use:
		dst = append(dst, binUse)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, max(p.Dur, 1))
	default:
		return dst, fmt.Errorf("wire: unsupported payload %T", ev.Payload)
	}
	return dst, nil
}

func appendClients(dst []byte, cs []metric.Point) []byte {
	if len(cs) == 0 {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Y))
	}
	return dst
}

// AppendEventsBinary appends one frame payload — the event count
// followed by the events — for evs to dst.
func AppendEventsBinary(dst []byte, evs []stream.Event) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	var err error
	for i, ev := range evs {
		if dst, err = AppendEventBinary(dst, ev); err != nil {
			return dst, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return dst, nil
}

// AppendEventBinaryWire is AppendEventBinary from the JSON-facing Event
// struct, byte-identical to encoding ev.Stream(): it lets a client
// encode straight from wire events without boxing stream payloads.
func AppendEventBinaryWire(dst []byte, ev Event) ([]byte, error) {
	switch ev.Kind {
	case KindDay:
		dst = append(dst, binDay)
		dst = binary.AppendVarint(dst, ev.Time)
	case KindElement:
		dst = append(dst, binElement)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, int64(ev.Elem))
		dst = binary.AppendVarint(dst, int64(max(ev.P, 1)))
	case KindWindow:
		dst = append(dst, binWindow)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, ev.D)
	case KindElementWindow:
		dst = append(dst, binElementWindow)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, int64(ev.Elem))
		dst = binary.AppendVarint(dst, ev.D)
	case KindBatch:
		dst = append(dst, binBatch)
		dst = binary.AppendVarint(dst, ev.Time)
		if len(ev.Clients) == 0 {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(len(ev.Clients)))
			for _, c := range ev.Clients {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.X))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Y))
			}
		}
	case KindConnect:
		dst = append(dst, binConnect)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, int64(ev.S))
		dst = binary.AppendVarint(dst, int64(ev.U))
	case KindUse:
		dst = append(dst, binUse)
		dst = binary.AppendVarint(dst, ev.Time)
		dst = binary.AppendVarint(dst, max(ev.Dur, 1))
	default:
		return dst, fmt.Errorf("wire: unknown event kind %q", ev.Kind)
	}
	return dst, nil
}

// AppendEventsBinaryWire appends one frame payload for wevs to dst,
// byte-identical to AppendEventsBinary of the converted stream events.
func AppendEventsBinaryWire(dst []byte, wevs []Event) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(wevs)))
	var err error
	for i, ev := range wevs {
		if dst, err = AppendEventBinaryWire(dst, ev); err != nil {
			return dst, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return dst, nil
}

// AppendFrame appends payload to dst as one length-prefixed frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// ifaceWords mirrors the runtime layout of a non-empty interface value:
// an itab word and a data word. The payload arenas use it to point a
// copied prototype interface at arena-owned memory, so a decoded
// payload reuses a box that was built (and allocated) once instead of
// being re-boxed per event — the mechanism behind the zero-alloc decode
// path. Only the data word is ever written, and only with pointers to
// memory this package allocated with new; the prototypes themselves are
// never mutated.
type ifaceWords struct{ tab, data unsafe.Pointer }

// payloadAt returns a Payload with proto's itab and data pointing at p.
func payloadAt(proto stream.Payload, p unsafe.Pointer) stream.Payload {
	out := proto
	(*ifaceWords)(unsafe.Pointer(&out)).data = p
	return out
}

// Prototype boxes, one per payload type: boxed once here, read-only
// forever (payloadAt copies them; nothing writes through them).
var (
	protoDay           stream.Payload = stream.Day{}
	protoElement       stream.Payload = stream.Element{}
	protoWindow        stream.Payload = stream.Window{}
	protoElementWindow stream.Payload = stream.ElementWindow{}
	protoBatch         stream.Payload = stream.Batch{}
	protoConnect       stream.Payload = stream.Connect{}
	protoUse           stream.Payload = stream.Use{}
)

// emptyClients is the shared non-nil empty client list (the decode of
// presence 1 with count 0). Consumers only read event payloads, so one
// empty slice can back every such batch.
var emptyClients = make([]metric.Point, 0)

// arena hands out pre-boxed payloads of one type. Growth allocates (one
// value plus one box); Reset makes every box reusable, so a warm arena
// decodes without allocating.
type arena[T any] struct {
	vals  []*T
	boxes []stream.Payload
	used  int
}

func (a *arena[T]) take(proto stream.Payload) (*T, stream.Payload) {
	if a.used == len(a.vals) {
		v := new(T)
		a.vals = append(a.vals, v)
		a.boxes = append(a.boxes, payloadAt(proto, unsafe.Pointer(v)))
	}
	i := a.used
	a.used++
	return a.vals[i], a.boxes[i]
}

func (a *arena[T]) reset() { a.used = 0 }

// EventBatch is a reusable decoded event batch: Events and the payload
// values it points into are owned by the batch and valid until the next
// Reset. Submitting one to the engine therefore requires a release hook
// (engine.TrySubmitBatchRelease) so the batch is only reset after the
// owning shard is done with it. A warm EventBatch decodes at zero
// allocations per event; EventBatch is not safe for concurrent use.
//
//lint:allow-wiretags pooled decode buffer, never crosses the wire as JSON
type EventBatch struct {
	Events []stream.Event

	elems arena[stream.Element]
	wins  arena[stream.Window]
	ewins arena[stream.ElementWindow]
	bats  arena[stream.Batch]
	conns arena[stream.Connect]
	uses  arena[stream.Use]
}

// Reset empties the batch for reuse, keeping every buffer and box.
func (b *EventBatch) Reset() {
	b.Events = b.Events[:0]
	b.elems.reset()
	b.wins.reset()
	b.ewins.reset()
	b.bats.reset()
	b.conns.reset()
	b.uses.reset()
}

// decodeEvent decodes one event from the front of data into the batch
// and returns its encoded size.
func (b *EventBatch) decodeEvent(data []byte) (int, error) {
	if len(data) == 0 {
		return 0, binErrf("truncated event")
	}
	kind := data[0]
	t, n := binary.Varint(data[1:])
	if n <= 0 {
		return 0, binErrf("bad event time")
	}
	off := 1 + n
	ev := stream.Event{Time: t}
	switch kind {
	case binDay:
		ev.Payload = protoDay
	case binElement:
		p, box := b.elems.take(protoElement)
		elem, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, binErrf("bad element index")
		}
		off += n
		mult, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, binErrf("bad element multiplicity")
		}
		off += n
		p.Elem, p.P = int(elem), int(mult)
		ev.Payload = box
	case binWindow:
		p, box := b.wins.take(protoWindow)
		d, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, binErrf("bad window slack")
		}
		off += n
		p.D = d
		ev.Payload = box
	case binElementWindow:
		p, box := b.ewins.take(protoElementWindow)
		elem, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, binErrf("bad element index")
		}
		off += n
		d, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, binErrf("bad window slack")
		}
		off += n
		p.Elem, p.D = int(elem), d
		ev.Payload = box
	case binBatch:
		p, box := b.bats.take(protoBatch)
		n, err := decodeClients(p, data[off:])
		if err != nil {
			return 0, err
		}
		off += n
		ev.Payload = box
	case binConnect:
		p, box := b.conns.take(protoConnect)
		s, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, binErrf("bad connect terminal")
		}
		off += n
		u, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, binErrf("bad connect terminal")
		}
		off += n
		p.S, p.T = int(s), int(u)
		ev.Payload = box
	case binUse:
		p, box := b.uses.take(protoUse)
		dur, n := binary.Varint(data[off:])
		if n <= 0 {
			return 0, binErrf("bad usage duration")
		}
		off += n
		p.Dur = dur
		ev.Payload = box
	default:
		return 0, binErrf("unknown event kind %d", kind)
	}
	b.Events = append(b.Events, ev)
	return off, nil
}

// decodeClients decodes a batch payload's client list into p, reusing
// p's point buffer when it is large enough.
func decodeClients(p *stream.Batch, data []byte) (int, error) {
	if len(data) == 0 {
		return 0, binErrf("truncated batch payload")
	}
	switch data[0] {
	case 0:
		p.Clients = nil
		return 1, nil
	case 1:
	default:
		return 0, binErrf("bad client-list presence byte %d", data[0])
	}
	count, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return 0, binErrf("bad client count")
	}
	off := 1 + n
	// Each point is 16 bytes; a count the remaining bytes cannot hold is
	// corruption, caught before any buffer is sized from it.
	if count > uint64(len(data)-off)/16 {
		return 0, binErrf("client count %d exceeds frame", count)
	}
	if count == 0 {
		p.Clients = emptyClients
		return off, nil
	}
	if uint64(cap(p.Clients)) < count {
		p.Clients = make([]metric.Point, count)
	} else {
		p.Clients = p.Clients[:count]
	}
	for i := range p.Clients {
		x := binary.LittleEndian.Uint64(data[off:])
		y := binary.LittleEndian.Uint64(data[off+8:])
		p.Clients[i] = metric.Point{X: math.Float64frombits(x), Y: math.Float64frombits(y)}
		off += 16
	}
	return off, nil
}

// EventReader iterates one frame payload (as produced by
// AppendEventsBinary), decoding events in bounded runs so a server can
// enqueue chunk-sized batches while the body streams in.
//
//lint:allow-wiretags binary-decode cursor, never crosses the wire as JSON
type EventReader struct {
	data      []byte
	off       int
	remaining int
}

// Init points the reader at one frame payload and reads its count. The
// payload must stay valid (unmodified) until the reader is done.
func (r *EventReader) Init(payload []byte) error {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return binErrf("bad event count")
	}
	// Every event is at least 2 bytes (kind + 1 time byte).
	if count > uint64(len(payload)-n)/2 {
		return binErrf("event count %d exceeds frame", count)
	}
	r.data, r.off, r.remaining = payload, n, int(count)
	return nil
}

// Remaining returns how many declared events are still undecoded.
func (r *EventReader) Remaining() int { return r.remaining }

// Next decodes up to maxEvents events into dst (appending to
// dst.Events) and returns how many it decoded. Zero with a nil error
// means the frame is exhausted; a frame that ends before its declared
// count errors.
func (r *EventReader) Next(dst *EventBatch, maxEvents int) (int, error) {
	decoded := 0
	for decoded < maxEvents && r.remaining > 0 {
		n, err := dst.decodeEvent(r.data[r.off:])
		if err != nil {
			return decoded, err
		}
		r.off += n
		r.remaining--
		decoded++
	}
	if r.remaining == 0 && r.off != len(r.data) {
		return decoded, binErrf("%d trailing bytes after last event", len(r.data)-r.off)
	}
	return decoded, nil
}

// DecodeEventsBinary decodes one frame payload into freshly allocated
// events — the convenience path for recovery and tests; the hot path
// uses EventReader with a pooled EventBatch. The events point into a
// batch that is never Reset, so they own their payloads.
func DecodeEventsBinary(payload []byte) ([]stream.Event, error) {
	var r EventReader
	if err := r.Init(payload); err != nil {
		return nil, err
	}
	b := EventBatch{Events: make([]stream.Event, 0, r.Remaining())}
	for r.Remaining() > 0 {
		if _, err := r.Next(&b, r.Remaining()); err != nil {
			return nil, err
		}
	}
	return b.Events, nil
}
