package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// arrivalUnderTest is the process the property tests run: Bernoulli at
// a rate away from the default 0.5, so a helper that ignored P would
// show.
func arrivalUnderTest(t *testing.T) *Constant {
	t.Helper()
	a, err := NewConstant(0.4)
	if err != nil {
		t.Fatalf("NewConstant: %v", err)
	}
	return a
}

// TestArrivalSeededDeterminism: the same seed must yield byte-identical
// day streams, run after run — the property every committed BENCH_*.json
// and every parity check leans on.
func TestArrivalSeededDeterminism(t *testing.T) {
	const horizon = 4096
	for seed := int64(1); seed <= 20; seed++ {
		d1 := ArrivalDays(rand.New(rand.NewSource(seed)), horizon, arrivalUnderTest(t))
		d2 := ArrivalDays(rand.New(rand.NewSource(seed)), horizon, arrivalUnderTest(t))
		if !reflect.DeepEqual(d1, d2) {
			t.Fatalf("seed %d: two generations differ (%d vs %d days)", seed, len(d1), len(d2))
		}
	}
}

// TestArrivalSeedsDiffer: distinct seeds must not collapse onto one
// stream (a trivially-deterministic constant generator would pass the
// determinism test; this one catches it).
func TestArrivalSeedsDiffer(t *testing.T) {
	const horizon = 4096
	d1 := ArrivalDays(rand.New(rand.NewSource(1)), horizon, arrivalUnderTest(t))
	d2 := ArrivalDays(rand.New(rand.NewSource(2)), horizon, arrivalUnderTest(t))
	if reflect.DeepEqual(d1, d2) {
		t.Error("seeds 1 and 2 generated identical streams")
	}
}

// TestArrivalRateConservation: over many seeds, the empirical arrival
// rate must sit within a few standard errors of P.
func TestArrivalRateConservation(t *testing.T) {
	const (
		horizon = 2048
		seeds   = 40
	)
	a := arrivalUnderTest(t)
	var total float64
	for seed := int64(0); seed < seeds; seed++ {
		total += float64(len(ArrivalDays(rand.New(rand.NewSource(seed)), horizon, a)))
	}
	// Bernoulli steps give se ~ sqrt(p(1-p)/n) ~ 0.0017 here.
	if got, tol := total/(seeds*horizon), 0.01; math.Abs(got-a.P) > tol {
		t.Errorf("empirical rate %.4f, want %.4f +/- %v", got, a.P, tol)
	}
}

// TestArrivalStepsStayOrdered: ArrivalDays must return sorted distinct
// days (the contract DayEvents and the domain stream builders assume).
func TestArrivalStepsStayOrdered(t *testing.T) {
	days := ArrivalDays(rand.New(rand.NewSource(7)), 2048, arrivalUnderTest(t))
	for i := 1; i < len(days); i++ {
		if days[i] <= days[i-1] {
			t.Fatalf("days[%d]=%d <= days[%d]=%d", i, days[i], i-1, days[i-1])
		}
	}
}

// TestConstantRejectsBadRate: the constructor guards its domain.
func TestConstantRejectsBadRate(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5} {
		if _, err := NewConstant(p); err == nil {
			t.Errorf("NewConstant(%v) accepted", p)
		}
	}
}
