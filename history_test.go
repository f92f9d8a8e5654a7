package leasing_test

// Long-history tests. Every wire domain, plus the Lemma 2.6 general
// adapter, replays one seeded stream over a small universe with K = 3
// lease types (lengths 1, 4 and 16). The streams run for tens of
// thousands of events, so every (item, type) pair of a leaser passes
// through thousands of aligned windows: the goldens pin the random draw
// order and each window's hand-over over that history, and the state
// test checks that what a leaser keeps besides its output does not grow
// with it.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"leasing/internal/graph"
	"leasing/internal/lease"
	"leasing/internal/metric"
	"leasing/internal/parking"
	"leasing/internal/setcover"
	"leasing/internal/stream"
	"leasing/internal/wire"
)

// historyCase is one domain's long-history replay: a fresh leaser and
// the generator of its seeded event stream.
type historyCase struct {
	name  string
	build func(t testing.TB) stream.Leaser
	// next returns the event following time t.
	next func(rng *rand.Rand, t int64) stream.Event
	// logBytes is what the leaser's output keeps per purchased lease:
	// the entries of its purchase logs and of the sorted start index a
	// lease.Store keeps beside its log.
	logBytes int64
	// spec is the open spec build uses, for the four domains whose
	// spec can carry a demand stream.
	spec *wire.OpenRequest
}

var historyTypes = []wire.LeaseType{{Length: 1, Cost: 1}, {Length: 4, Cost: 3}, {Length: 16, Cost: 8}}

// fromSpec builds a leaser the way a served session is built.
func fromSpec(spec wire.OpenRequest) func(t testing.TB) stream.Leaser {
	return func(t testing.TB) stream.Leaser {
		t.Helper()
		l, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
}

// advance moves time forward by 0, 1 or 2 steps, so demands share days
// and windows are sometimes skipped.
func advance(rng *rand.Rand, t int64) int64 { return t + int64(rng.Intn(3)) }

// slack draws a deadline slack: mostly within a few short windows,
// occasionally spanning several of the longest.
func slack(rng *rand.Rand, short, long int) int64 {
	if rng.Intn(64) == 0 {
		return int64(rng.Intn(long))
	}
	return int64(rng.Intn(short))
}

func historyCases(t testing.TB) []historyCase {
	t.Helper()
	rng := rand.New(rand.NewSource(2015))
	cfg := lease.MustConfig(lease.Type{Length: 1, Cost: 1}, lease.Type{Length: 4, Cost: 3}, lease.Type{Length: 16, Cost: 8})

	// A set system over 6 elements and 5 sets, every element in 3 sets.
	const elems, sets = 6, 5
	fam, err := setcover.RandomFamily(rng, elems, sets, 3)
	if err != nil {
		t.Fatal(err)
	}
	family := make([][]int, fam.M())
	for s := range family {
		family[s] = fam.Set(s)
	}
	costs := setcover.RandomCosts(rng, sets, cfg, 0.5)

	const vertices = 8
	g, err := graph.RandomConnected(rng, vertices, 14, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]wire.Edge, g.M())
	for i, e := range g.Edges() {
		edges[i] = wire.Edge{U: e.U, V: e.V, W: e.Weight}
	}

	sites := []wire.Point{{X: 0, Y: 0}, {X: 30, Y: 5}, {X: 10, Y: 40}, {X: 45, Y: 45}}
	siteCosts := make([][]float64, len(sites))
	for i := range siteCosts {
		siteCosts[i] = []float64{4 + float64(i), 10 + float64(i), 24 + float64(i)}
	}

	day := func(rng *rand.Rand, t int64) stream.Event { return stream.Event{Time: advance(rng, t)} }
	// A general configuration: lengths 1, 3 and 10 are not powers of two.
	general, err := lease.NewConfig(lease.Type{Length: 1, Cost: 1}, lease.Type{Length: 3, Cost: 2.5}, lease.Type{Length: 10, Cost: 6})
	if err != nil {
		t.Fatal(err)
	}
	scSpec := wire.OpenRequest{Domain: wire.DomainSetCover, Types: historyTypes, Seed: 5,
		SetCover: &wire.SetCoverSpec{Elements: elems, Sets: family, Costs: costs}}
	scldSpec := wire.OpenRequest{Domain: wire.DomainSCLD, Types: historyTypes, Seed: 7,
		SCLD: &wire.SCLDSpec{Elements: elems, Sets: family, Costs: costs}}
	facSpec := wire.OpenRequest{Domain: wire.DomainFacility, Types: historyTypes,
		Facility: &wire.FacilitySpec{Sites: sites, Costs: siteCosts}}
	stSpec := wire.OpenRequest{Domain: wire.DomainSteiner, Types: historyTypes,
		Steiner: &wire.SteinerSpec{Vertices: vertices, Edges: edges}}
	return []historyCase{
		// A lease.Store keeps 16 bytes of log and 8 of start index per lease.
		{name: wire.DomainParking, build: fromSpec(wire.OpenRequest{Domain: wire.DomainParking, Types: historyTypes}), next: day, logBytes: 24},
		{name: wire.DomainParkingRand, build: fromSpec(wire.OpenRequest{Domain: wire.DomainParkingRand, Types: historyTypes, Seed: 3}), next: day, logBytes: 24},
		{
			name:  wire.DomainDeadline,
			build: fromSpec(wire.OpenRequest{Domain: wire.DomainDeadline, Types: historyTypes}),
			next: func(rng *rand.Rand, t int64) stream.Event {
				return stream.Event{Time: advance(rng, t), Payload: stream.Window{D: slack(rng, 24, 200)}}
			},
			logBytes: 24,
		},
		{
			name:  wire.DomainSetCover,
			build: fromSpec(scSpec),
			spec:  &scSpec,
			next: func(rng *rand.Rand, t int64) stream.Event {
				return stream.Event{Time: advance(rng, t), Payload: stream.Element{Elem: rng.Intn(elems), P: 1 + rng.Intn(2)}}
			},
			logBytes: 24, // one 24-byte triple
		},
		{
			name:  wire.DomainSCLD,
			build: fromSpec(scldSpec),
			spec:  &scldSpec,
			next: func(rng *rand.Rand, t int64) stream.Event {
				return stream.Event{Time: advance(rng, t), Payload: stream.ElementWindow{Elem: rng.Intn(elems), D: slack(rng, 12, 100)}}
			},
			logBytes: 24,
		},
		{
			name:  wire.DomainFacility,
			build: fromSpec(facSpec),
			spec:  &facSpec,
			next: func(rng *rand.Rand, t int64) stream.Event {
				var b stream.Batch
				for range rng.Intn(3) {
					s := sites[rng.Intn(len(sites))]
					b.Clients = append(b.Clients, metric.Point{X: s.X + rng.Float64()*8, Y: s.Y + rng.Float64()*8})
				}
				return stream.Event{Time: t + 1 + int64(rng.Intn(2)), Payload: b}
			},
			logBytes: 32, // a triple and its start
		},
		{
			name:  wire.DomainSteiner,
			build: fromSpec(stSpec),
			spec:  &stSpec,
			next: func(rng *rand.Rand, t int64) stream.Event {
				s := rng.Intn(vertices)
				u := (s + 1 + rng.Intn(vertices-1)) % vertices
				return stream.Event{Time: advance(rng, t), Payload: stream.Connect{S: s, T: u}}
			},
			logBytes: 48, // the tree's triple, and the edge's lease.Store
		},
		{
			name: wire.DomainReusable,
			build: fromSpec(wire.OpenRequest{Domain: wire.DomainReusable, Types: historyTypes,
				Reusable: &wire.ReusableSpec{Capacity: 3}}),
			next: func(rng *rand.Rand, t int64) stream.Event {
				return stream.Event{Time: advance(rng, t), Payload: stream.Use{Dur: 1 + int64(rng.Intn(8))}}
			},
			logBytes: 48, // the pool's triple, and the unit's lease.Store
		},
		{
			name: "parking-general",
			build: func(t testing.TB) stream.Leaser {
				t.Helper()
				alg, err := parking.NewGeneralAdapter(general, func(c *lease.Config) (parking.Algorithm, error) {
					return parking.NewDeterministic(c)
				})
				if err != nil {
					t.Fatal(err)
				}
				return parking.NewLeaser(alg)
			},
			next: day,
			// The adapter's store, plus the inner store's lease for every
			// second one.
			logBytes: 36,
		},
	}
}

// replay feeds n events of the case's seeded stream through l and
// hands each decision to f.
func replay(t testing.TB, hc historyCase, l stream.Leaser, n int, f func(stream.Decision)) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var tm int64
	for i := range n {
		ev := hc.next(rng, tm)
		tm = ev.Time
		d, err := l.Observe(ev)
		if err != nil {
			t.Fatalf("event %d at %d: %v", i, ev.Time, err)
		}
		f(d)
	}
}

// replayDigest replays n events through l, a fresh leaser, and returns
// the SHA-256 of the printed decision stream, the final cost and the
// final snapshot.
func replayDigest(t testing.TB, hc historyCase, l stream.Leaser, n int) string {
	t.Helper()
	h := sha256.New()
	replay(t, hc, l, n, func(d stream.Decision) { fmt.Fprintf(h, "%+v\n", d) })
	fmt.Fprintf(h, "cost %+v\nsnapshot %+v\n", l.Cost(), l.Snapshot())
	return hex.EncodeToString(h.Sum(nil))
}

// historyEvents is the goldens' stream length: with time advancing a
// step per event on average, each (item, type) pair sees about 3,000
// of its longest type's windows.
const historyEvents = 50_000

// historyGoldens are the digests of each domain's output over
// historyEvents events: its decisions, final cost and final snapshot.
var historyGoldens = map[string]string{
	"parking":         "aa0311a97c5a6ed0a30425113020be4f9bae0bfd7283a8d866c49e69165c5fc7",
	"parking-rand":    "e5a58b02d6a8cfbca8dacd6a633cc3b98d2141d4f4b1c61d097a357e0aca0184",
	"deadline":        "6ddb5bdcb752e2fc93e610e185860a4748756de208b4f13058899d8b577ff9b0",
	"setcover":        "71a2c0a2c84883e77061889bfbda981e914e55f4689c855558d4138f7e9577bd",
	"scld":            "bf21f7b67452dd143b9897f18fba4799a7aa9016086f4cb76e3c2ceb0cf147d0",
	"facility":        "9753710335c0d6b34b930f2f3f66153165602e7dd6be53f1d2a0eb6a044b4fcd",
	"steiner":         "e26d603044ccd64eec7fb48b6dbf42a9ed764fdb99f9fd950bb0142dbfd094bb",
	"reusable":        "fda553b0bc93772903ef922b8cda865c83a8a7252307a05e99c24f39bdb85d64",
	"parking-general": "f1cf59fb046753e34aa1d0c27372a55b72493ef02f5bc8e37f644680aa88b6a3",
}

// TestLongHistoryGoldens pins each domain's output over a long history.
func TestLongHistoryGoldens(t *testing.T) {
	for _, hc := range historyCases(t) {
		t.Run(hc.name, func(t *testing.T) {
			t.Parallel()
			if got := replayDigest(t, hc, hc.build(t), historyEvents); got != historyGoldens[hc.name] {
				t.Errorf("digest %s, want %s", got, historyGoldens[hc.name])
			}
		})
	}
}

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLiveStateBounded replays a long stream through every domain and
// requires the heap a leaser retains, less its output, to stay within a
// bound that does not depend on the event count. The output is the
// purchase logs and, where a domain keeps them, the 24-byte
// assignments, allowed a quarter more for the spare capacity append
// leaves. Everything else a leaser keeps per lease must be retired when
// the lease's window ends.
func TestLiveStateBounded(t *testing.T) {
	const (
		events = 100_000
		bound  = 64 << 10
	)
	for _, hc := range historyCases(t) {
		t.Run(hc.name, func(t *testing.T) {
			base := liveHeap()
			l := hc.build(t)
			replay(t, hc, l, events, func(stream.Decision) {})
			retained := liveHeap() - base
			sol := l.Snapshot()
			output := (hc.logBytes*int64(len(sol.Leases)) + 24*int64(len(sol.Assignments))) * 5 / 4
			t.Logf("retained %d B, output allowance %d B (%d leases, %d assignments)",
				retained, output, len(sol.Leases), len(sol.Assignments))
			if state := retained - output; state > bound {
				t.Errorf("leaser keeps %d B beyond its output after %d events, want at most %d", state, events, bound)
			}
		})
	}
}
