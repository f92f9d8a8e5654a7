package leasing_test

// Stream-less open specs. The served algorithms are online: a session
// learns its demands only from submitted events, so the demand stream an
// instance spec may carry (set cover and SCLD arrivals, facility
// batches, Steiner requests) is validated at open and never read. The
// client sends, and a durable server logs, a spec's WithoutStream form;
// these tests hold that form to byte-identical replays of the full spec
// over the conformance corpora and the long-history streams, so they
// fail as soon as a served leaser starts reading its stream.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"leasing"
	"leasing/internal/stream"
	"leasing/internal/wire"
)

// withStream returns spec carrying evs as its demand stream, listed the
// way its domain's instance spec lists demands. spec is not modified.
func withStream(t testing.TB, spec wire.OpenRequest, evs []stream.Event) wire.OpenRequest {
	t.Helper()
	switch spec.Domain {
	case wire.DomainSetCover:
		sp := *spec.SetCover
		for _, ev := range evs {
			p := ev.Payload.(stream.Element)
			sp.Arrivals = append(sp.Arrivals, wire.ElementArrival{T: ev.Time, Elem: p.Elem, P: p.P})
		}
		spec.SetCover = &sp
	case wire.DomainSCLD:
		sp := *spec.SCLD
		for _, ev := range evs {
			p := ev.Payload.(stream.ElementWindow)
			sp.Arrivals = append(sp.Arrivals, wire.SCLDArrival{T: ev.Time, Elem: p.Elem, D: p.D})
		}
		spec.SCLD = &sp
	case wire.DomainFacility:
		sp := *spec.Facility
		sp.Batches = make([][]wire.Point, evs[len(evs)-1].Time+1)
		for _, ev := range evs {
			for _, c := range ev.Payload.(stream.Batch).Clients {
				sp.Batches[ev.Time] = append(sp.Batches[ev.Time], wire.Point{X: c.X, Y: c.Y})
			}
		}
		spec.Facility = &sp
	case wire.DomainSteiner:
		sp := *spec.Steiner
		for _, ev := range evs {
			p := ev.Payload.(stream.Connect)
			sp.Requests = append(sp.Requests, wire.ConnectRequest{T: ev.Time, S: p.S, U: p.T})
		}
		spec.Steiner = &sp
	default:
		t.Fatalf("domain %s has no demand stream in its spec", spec.Domain)
	}
	return spec
}

// build builds the spec's leaser, failing the test on a rejected spec.
func build(t testing.TB, spec wire.OpenRequest) stream.Leaser {
	t.Helper()
	l, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestStreamlessSpecParityConformance: over every conformance corpus of
// an instance domain, the spec carrying the corpus as its stream, its
// WithoutStream form and the facade-built leaser replay identically:
// same decisions, cost curve, final cost and snapshot.
func TestStreamlessSpecParityConformance(t *testing.T) {
	for _, tc := range conformanceCases(t) {
		if tc.spec == nil {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			full := withStream(t, *tc.spec, tc.events)
			bare := full.WithoutStream()
			if !reflect.DeepEqual(bare, *tc.spec) {
				t.Fatalf("WithoutStream kept more than the instance:\n got %+v\nwant %+v", bare, *tc.spec)
			}
			facade, _ := tc.build(t)
			var want string
			for i, l := range []stream.Leaser{facade, build(t, full), build(t, bare)} {
				run, err := leasing.Replay(l, tc.events)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%#v\n%#v", run, l.Snapshot())
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("leaser %d (0 facade, 1 full spec, 2 stream-less spec) diverged:\n got %s\nwant %s", i, got, want)
				}
			}
		})
	}
}

// TestStreamlessSpecParityLongHistory: over the long-history streams,
// a spec carrying the whole stream and its WithoutStream form both
// replay to the committed golden digest.
func TestStreamlessSpecParityLongHistory(t *testing.T) {
	for _, hc := range historyCases(t) {
		if hc.spec == nil {
			continue
		}
		t.Run(hc.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1))
			evs := make([]stream.Event, historyEvents)
			var tm int64
			for i := range evs {
				evs[i] = hc.next(rng, tm)
				tm = evs[i].Time
			}
			full := withStream(t, *hc.spec, evs)
			for _, spec := range []wire.OpenRequest{full, full.WithoutStream()} {
				if got := replayDigest(t, hc, build(t, spec), historyEvents); got != historyGoldens[hc.name] {
					t.Errorf("digest %s, want %s", got, historyGoldens[hc.name])
				}
			}
		})
	}
}
