package stream

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// fakeLeaser buys one unit-cost lease per event; it exists to test the
// driver without pulling in a domain package.
type fakeLeaser struct {
	events int
	cost   float64
}

func (f *fakeLeaser) Observe(ev Event) (Decision, error) {
	if _, ok := ev.Payload.(Day); !ok && ev.Payload != nil {
		return Decision{}, errors.New("fake: unsupported payload")
	}
	f.events++
	f.cost += 1
	return Decision{
		Leases: []ItemLease{{Item: 0, K: 0, Start: ev.Time}},
		Cost:   1,
	}, nil
}

func (f *fakeLeaser) Cost() CostBreakdown { return CostBreakdown{Lease: f.cost} }

func (f *fakeLeaser) Snapshot() Solution { return Solution{} }

func TestReplayCurveAndTotals(t *testing.T) {
	l := &fakeLeaser{}
	run, err := Replay(l, Days([]int64{1, 3, 3, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Decisions) != 4 || len(run.Curve) != 4 {
		t.Fatalf("got %d decisions, %d curve points", len(run.Decisions), len(run.Curve))
	}
	if run.Total() != 4 {
		t.Errorf("total = %v, want 4", run.Total())
	}
	if math.Abs(run.DecisionCostSum()-run.Total()) > 1e-12 {
		t.Errorf("decision sum %v != total %v", run.DecisionCostSum(), run.Total())
	}
	for i, p := range run.Curve {
		if want := float64(i + 1); p.Cost != want {
			t.Errorf("curve[%d].Cost = %v, want %v", i, p.Cost, want)
		}
	}
	ratio, err := run.Ratio(2)
	if err != nil || ratio != 2 {
		t.Errorf("ratio = %v, %v", ratio, err)
	}
	curve, err := run.RatioCurve(4)
	if err != nil || curve[len(curve)-1] != 1 {
		t.Errorf("ratio curve = %v, %v", curve, err)
	}
	if _, err := run.Ratio(0); err == nil {
		t.Error("zero baseline accepted")
	}
}

func TestReplayRejectsTimeRegression(t *testing.T) {
	if _, err := Replay(&fakeLeaser{}, Days([]int64{5, 4})); err == nil {
		t.Error("out-of-order events accepted")
	}
}

func TestReplaySurfacesLeaserErrors(t *testing.T) {
	evs := []Event{{Time: 0, Payload: Connect{S: 0, T: 1}}}
	if _, err := Replay(&fakeLeaser{}, evs); err == nil {
		t.Error("unsupported payload accepted")
	}
}

func TestInterleaveDeterministicMerge(t *testing.T) {
	a := Days([]int64{0, 2, 2, 9})
	b := Days([]int64{1, 2, 5})
	got := Interleave(a, b)
	var times []int64
	for _, ev := range got {
		times = append(times, ev.Time)
	}
	want := []int64{0, 1, 2, 2, 2, 5, 9}
	if !reflect.DeepEqual(times, want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	// Ties go to the earlier stream: both events at t=2 from stream a come
	// before stream b's.
	again := Interleave(a, b)
	if !reflect.DeepEqual(got, again) {
		t.Error("interleave not deterministic")
	}
	if out := Interleave(); len(out) != 0 {
		t.Errorf("empty interleave returned %d events", len(out))
	}
}

func TestSortItemLeases(t *testing.T) {
	ls := []ItemLease{{Item: 1, K: 0, Start: 4}, {Item: 0, K: 1, Start: 0}, {Item: 0, K: 0, Start: 8}, {Item: 0, K: 0, Start: 2}}
	SortItemLeases(ls)
	want := []ItemLease{{Item: 0, K: 0, Start: 2}, {Item: 0, K: 0, Start: 8}, {Item: 0, K: 1, Start: 0}, {Item: 1, K: 0, Start: 4}}
	if !reflect.DeepEqual(ls, want) {
		t.Errorf("sorted = %v", ls)
	}
}
