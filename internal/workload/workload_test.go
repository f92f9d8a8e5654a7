package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func sortedDistinct(t *testing.T, days []int64) {
	t.Helper()
	for i := 1; i < len(days); i++ {
		if days[i] <= days[i-1] {
			t.Fatalf("days not sorted distinct at %d: %v <= %v", i, days[i], days[i-1])
		}
	}
}

func TestDemandDays(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	days := DemandDays(rng, 1000, 0.3)
	sortedDistinct(t, days)
	for _, d := range days {
		if d < 0 || d >= 1000 {
			t.Fatalf("day %d out of range", d)
		}
	}
	// Expectation 300, tolerate ±100.
	if len(days) < 200 || len(days) > 400 {
		t.Errorf("got %d days, want roughly 300", len(days))
	}
	if got := DemandDays(rng, 100, 0); len(got) != 0 {
		t.Errorf("p=0 produced %d days", len(got))
	}
	if got := DemandDays(rng, 100, 1); len(got) != 100 {
		t.Errorf("p=1 produced %d days, want 100", len(got))
	}
}

func TestBurstyDays(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	days := BurstyDays(rng, 2000, 0.95)
	sortedDistinct(t, days)
	if len(days) == 0 || len(days) == 2000 {
		t.Fatalf("degenerate bursty stream: %d days", len(days))
	}
	// Bursty streams should have long runs: mean run length >> 1.
	runs, runLen := 0, 0
	prev := int64(-10)
	for _, d := range days {
		if d != prev+1 {
			runs++
		}
		runLen++
		prev = d
	}
	if runs == 0 {
		t.Fatal("no runs")
	}
	if mean := float64(runLen) / float64(runs); mean < 3 {
		t.Errorf("mean run length %.1f, want >= 3 for stay=0.95", mean)
	}
}

func TestSeasonalDays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	days := SeasonalDays(rng, 4000, 100, 0.05, 0.95)
	sortedDistinct(t, days)
	if len(days) < 1000 || len(days) > 3000 {
		t.Errorf("seasonal stream has %d days, want mid-range density", len(days))
	}
	// Period clamp must not panic.
	_ = SeasonalDays(rng, 10, 0, 0.5, 0.5)
}

func TestEveryDay(t *testing.T) {
	days := EveryDay(5)
	if len(days) != 5 || days[0] != 0 || days[4] != 4 {
		t.Errorf("EveryDay(5) = %v", days)
	}
}

func TestZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z, err := NewZipf(rng, 100, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		v := z.Draw()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf drew %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	if _, err := NewZipf(rng, 0, 2); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(rng, 10, 1.0); err == nil {
		t.Error("s=1 accepted")
	}
}

func TestBatchSizes(t *testing.T) {
	for _, p := range []ArrivalPattern{PatternConstant, PatternNonIncreasing, PatternPolynomial, PatternExponential} {
		t.Run(p.String(), func(t *testing.T) {
			sizes, err := BatchSizes(p, 16, 1, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if len(sizes) != 16 {
				t.Fatalf("len = %d", len(sizes))
			}
			for i, s := range sizes {
				if s < 1 || s > 1000 {
					t.Errorf("size[%d] = %d out of [1,1000]", i, s)
				}
			}
		})
	}
	t.Run("shape", func(t *testing.T) {
		cst, _ := BatchSizes(PatternConstant, 8, 3, 100)
		for _, s := range cst {
			if s != 3 {
				t.Errorf("constant pattern gave %v", cst)
				break
			}
		}
		ni, _ := BatchSizes(PatternNonIncreasing, 8, 1, 100)
		if !sort.SliceIsSorted(ni, func(i, j int) bool { return ni[i] > ni[j] }) {
			t.Errorf("non-increasing pattern gave %v", ni)
		}
		exp, _ := BatchSizes(PatternExponential, 8, 1, 1<<20)
		for i := 1; i < len(exp); i++ {
			if exp[i] != 2*exp[i-1] {
				t.Errorf("exponential pattern gave %v", exp)
				break
			}
		}
	})
	if _, err := BatchSizes(PatternConstant, 0, 1, 1); err == nil {
		t.Error("steps=0 accepted")
	}
	if _, err := BatchSizes(ArrivalPattern(77), 4, 1, 1); err == nil {
		t.Error("unknown pattern accepted")
	}
	if ArrivalPattern(77).String() == "" {
		t.Error("unknown pattern String empty")
	}
}

func TestHSeries(t *testing.T) {
	// Constant batches of size c: H_q = sum 1/i = harmonic number.
	batch := []int{1, 1, 1, 1}
	want := 1.0 + 0.5 + 1.0/3 + 0.25
	if got := HSeries(batch); math.Abs(got-want) > 1e-12 {
		t.Errorf("HSeries(1,1,1,1) = %v, want %v", got, want)
	}
	// Exponential batches 2^i: each term ~ 1/2 ... H_q = Θ(q).
	exp := []int{1, 2, 4, 8, 16, 32}
	if got := HSeries(exp); got < 2.5 {
		t.Errorf("HSeries(exponential) = %v, want > 2.5 (Θ(q) growth)", got)
	}
	// Zero batches contribute nothing.
	if got := HSeries([]int{0, 0, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("HSeries(0,0,5) = %v, want 1", got)
	}
	if got := HSeries(nil); got != 0 {
		t.Errorf("HSeries(nil) = %v, want 0", got)
	}
}

func TestDeadlineStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cs := DeadlineStream(rng, 500, 0.4, 10)
	for i, c := range cs {
		if c.D < 0 || c.D > 10 {
			t.Fatalf("client %d slack %d out of [0,10]", i, c.D)
		}
		if i > 0 && c.T < cs[i-1].T {
			t.Fatalf("clients not sorted at %d", i)
		}
	}
	uni := UniformDeadlineStream(rng, 500, 0.4, 7)
	for _, c := range uni {
		if c.D != 7 {
			t.Fatalf("uniform stream has slack %d, want 7", c.D)
		}
	}
	zero := DeadlineStream(rng, 100, 1, 0)
	for _, c := range zero {
		if c.D != 0 {
			t.Fatal("dmax=0 must give slack 0")
		}
	}
}

func TestElementStream(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pick := func() int { return rng.Intn(20) }
	mult := func() int { return 1 + rng.Intn(3) }
	es := ElementStream(rng, 300, 0.5, pick, mult)
	if len(es) == 0 {
		t.Fatal("empty stream")
	}
	for i, a := range es {
		if a.Elem < 0 || a.Elem >= 20 || a.P < 1 || a.P > 3 {
			t.Fatalf("arrival %d invalid: %+v", i, a)
		}
		if i > 0 && a.T < es[i-1].T {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestMergeSortedDays(t *testing.T) {
	got := MergeSortedDays([]int64{1, 3, 5}, []int64{2, 3, 6})
	want := []int64{1, 2, 3, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("MergeSortedDays = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeSortedDays = %v, want %v", got, want)
		}
	}
}
