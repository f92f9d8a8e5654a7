package setcover

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"leasing/internal/lease"
	"leasing/internal/workload"
)

func smallConfig() *lease.Config {
	return lease.MustConfig(
		lease.Type{Length: 2, Cost: 1},
		lease.Type{Length: 8, Cost: 2.5},
	)
}

func TestNewFamilyValidation(t *testing.T) {
	if _, err := NewFamily(0, [][]int{{0}}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewFamily(3, nil); err == nil {
		t.Error("empty family accepted")
	}
	if _, err := NewFamily(3, [][]int{{}}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewFamily(3, [][]int{{0, 3}}); err == nil {
		t.Error("out-of-range element accepted")
	}
	if _, err := NewFamily(3, [][]int{{1, 1}}); err == nil {
		t.Error("duplicate element accepted")
	}
}

func TestFamilyAccessors(t *testing.T) {
	fam, err := NewFamily(4, [][]int{{0, 1, 2}, {1, 3}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if fam.N() != 4 || fam.M() != 3 {
		t.Errorf("N,M = %d,%d want 4,3", fam.N(), fam.M())
	}
	if fam.Delta() != 3 { // element 1 is in all three sets
		t.Errorf("Delta = %d, want 3", fam.Delta())
	}
	if fam.MaxSetSize() != 3 {
		t.Errorf("MaxSetSize = %d, want 3", fam.MaxSetSize())
	}
	c := fam.Containing(1)
	if len(c) != 3 {
		t.Errorf("Containing(1) = %v", c)
	}
	if got := fam.Set(1); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Set(1) = %v, want [1 3]", got)
	}
}

func mustInstance(t *testing.T, fam *Family, cfg *lease.Config, costs [][]float64, arrivals []workload.ElementArrival, scope ExclusionScope) *Instance {
	t.Helper()
	inst, err := NewInstance(fam, cfg, costs, arrivals, scope)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceValidation(t *testing.T) {
	fam, _ := NewFamily(2, [][]int{{0}, {0, 1}})
	cfg := smallConfig()
	good := [][]float64{{1, 2}, {1, 2}}
	if _, err := NewInstance(fam, cfg, [][]float64{{1, 2}}, nil, PerArrival); err == nil {
		t.Error("wrong cost rows accepted")
	}
	if _, err := NewInstance(fam, cfg, [][]float64{{1}, {1}}, nil, PerArrival); err == nil {
		t.Error("short cost row accepted")
	}
	if _, err := NewInstance(fam, cfg, [][]float64{{1, 0}, {1, 1}}, nil, PerArrival); err == nil {
		t.Error("zero cost accepted")
	}
	if _, err := NewInstance(fam, cfg, good, []workload.ElementArrival{{T: 5, Elem: 0, P: 1}, {T: 1, Elem: 0, P: 1}}, PerArrival); err == nil {
		t.Error("unsorted arrivals accepted")
	}
	if _, err := NewInstance(fam, cfg, good, []workload.ElementArrival{{T: 0, Elem: 7, P: 1}}, PerArrival); err == nil {
		t.Error("unknown element accepted")
	}
	if _, err := NewInstance(fam, cfg, good, []workload.ElementArrival{{T: 0, Elem: 1, P: 0}}, PerArrival); err == nil {
		t.Error("zero multiplicity accepted")
	}
	// Element 0 is in 2 sets: p=3 infeasible.
	if _, err := NewInstance(fam, cfg, good, []workload.ElementArrival{{T: 0, Elem: 0, P: 3}}, PerArrival); err == nil {
		t.Error("infeasible multiplicity accepted")
	}
	// PerElement: cumulative demand 3 > 2 sets.
	arr := []workload.ElementArrival{{T: 0, Elem: 0, P: 1}, {T: 1, Elem: 0, P: 1}, {T: 2, Elem: 0, P: 1}}
	if _, err := NewInstance(fam, cfg, good, arr, PerElement); err == nil {
		t.Error("PerElement cumulative overflow accepted")
	}
	if _, err := NewInstance(fam, cfg, good, nil, ExclusionScope(9)); err == nil {
		t.Error("unknown scope accepted")
	}
	// Scope zero defaults to PerArrival.
	inst, err := NewInstance(fam, cfg, good, nil, 0)
	if err != nil || inst.Scope != PerArrival {
		t.Errorf("default scope = %v, err %v", inst.Scope, err)
	}
}

func TestOnlineCoversSingleArrival(t *testing.T) {
	fam, _ := NewFamily(2, [][]int{{0, 1}, {1}})
	cfg := smallConfig()
	inst := mustInstance(t, fam, cfg, [][]float64{{1, 2.5}, {1, 2.5}},
		[]workload.ElementArrival{{T: 3, Elem: 1, P: 2}}, PerArrival)
	alg, err := NewOnline(inst, rand.New(rand.NewSource(1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(inst, alg.Bought()); err != nil {
		t.Errorf("infeasible: %v", err)
	}
	if alg.TotalCost() <= 0 {
		t.Error("no cost accumulated")
	}
}

func TestOnlineFeasibleOnRandomInstances(t *testing.T) {
	cfg := smallConfig()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst, err := RandomInstance(rng, cfg, 12, 8, 3, 48, 0.5, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewOnline(inst, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Run(); err != nil {
			t.Fatal(err)
		}
		if err := VerifyFeasible(inst, alg.Bought()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if alg.FractionalCost() < 0 {
			t.Error("negative fractional cost")
		}
	}
}

func TestOnlineRejectsBadInput(t *testing.T) {
	fam, _ := NewFamily(2, [][]int{{0, 1}})
	cfg := smallConfig()
	inst := mustInstance(t, fam, cfg, [][]float64{{1, 2}}, nil, PerArrival)
	if _, err := NewOnline(inst, nil, Options{}); err == nil {
		t.Error("nil rng accepted")
	}
	alg, _ := NewOnline(inst, rand.New(rand.NewSource(1)), Options{})
	if err := alg.Arrive(0, 5, 1); err == nil {
		t.Error("unknown element accepted")
	}
	if err := alg.Arrive(0, 0, 0); err == nil {
		t.Error("zero multiplicity accepted")
	}
	if err := alg.Arrive(5, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := alg.Arrive(2, 0, 1); err == nil {
		t.Error("time regression accepted")
	}
	badCfg := lease.MustConfig(lease.Type{Length: 3, Cost: 1})
	badInst := &Instance{Fam: fam, Cfg: badCfg, Costs: [][]float64{{1}}, Scope: PerArrival}
	if _, err := NewOnline(badInst, rand.New(rand.NewSource(1)), Options{}); err == nil {
		t.Error("non-interval config accepted")
	}
}

func TestGreedyAndOptimalOnHandInstance(t *testing.T) {
	// Universe {0,1}; S0={0} cheap, S1={0,1} pricey, S2={1} cheap.
	// One arrival of each element at t=0; OPT should buy S1 once if it is
	// cheaper than S0+S2, else the two singletons.
	fam, _ := NewFamily(2, [][]int{{0}, {0, 1}, {1}})
	cfg := lease.MustConfig(lease.Type{Length: 4, Cost: 1})
	costs := [][]float64{{1}, {1.5}, {1}}
	arrivals := []workload.ElementArrival{{T: 0, Elem: 0, P: 1}, {T: 0, Elem: 1, P: 1}}
	inst := mustInstance(t, fam, cfg, costs, arrivals, PerArrival)

	opt, err := Optimal(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Exact || math.Abs(opt.Cost-1.5) > 1e-6 {
		t.Errorf("OPT = %+v, want exact 1.5 (S1)", opt)
	}
	gCost, gSol, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(inst, gSol); err != nil {
		t.Errorf("greedy infeasible: %v", err)
	}
	if gCost < opt.Cost-1e-9 {
		t.Errorf("greedy %v below OPT %v", gCost, opt.Cost)
	}
	lpLB, err := LPLowerBound(inst)
	if err != nil {
		t.Fatal(err)
	}
	if lpLB > opt.Cost+1e-6 {
		t.Errorf("LP bound %v above OPT %v", lpLB, opt.Cost)
	}
}

func TestMulticoverOptimalCountsDistinctSets(t *testing.T) {
	// Element 0 in three sets; arrival demands p=2: OPT must lease the two
	// cheapest DISTINCT sets, not one set twice.
	fam, _ := NewFamily(1, [][]int{{0}, {0}, {0}})
	cfg := lease.MustConfig(lease.Type{Length: 4, Cost: 1})
	costs := [][]float64{{1}, {2}, {5}}
	arrivals := []workload.ElementArrival{{T: 0, Elem: 0, P: 2}}
	inst := mustInstance(t, fam, cfg, costs, arrivals, PerArrival)
	opt, err := Optimal(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Exact || math.Abs(opt.Cost-3) > 1e-6 {
		t.Errorf("OPT = %+v, want exact 3 (sets 0 and 1)", opt)
	}
}

func TestRepetitionsOptimalForcesFreshSets(t *testing.T) {
	// Element 0 in two sets, arriving twice far apart. A single long lease
	// of one set covers both times but repetitions demand distinct sets, so
	// OPT leases both sets.
	fam, _ := NewFamily(1, [][]int{{0}, {0}})
	cfg := lease.MustConfig(lease.Type{Length: 16, Cost: 2})
	costs := [][]float64{{2}, {3}}
	arrivals := []workload.ElementArrival{{T: 0, Elem: 0, P: 1}, {T: 1, Elem: 0, P: 1}}

	instRep := mustInstance(t, fam, cfg, costs, arrivals, PerElement)
	optRep, err := Optimal(instRep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !optRep.Exact || math.Abs(optRep.Cost-5) > 1e-6 {
		t.Errorf("repetitions OPT = %+v, want exact 5", optRep)
	}

	instPlain := mustInstance(t, fam, cfg, costs, arrivals, PerArrival)
	optPlain, err := Optimal(instPlain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !optPlain.Exact || math.Abs(optPlain.Cost-2) > 1e-6 {
		t.Errorf("plain OPT = %+v, want exact 2 (one lease covers both)", optPlain)
	}
}

func TestOnlineAboveOptimalAndGreedyAboveOptimal(t *testing.T) {
	cfg := smallConfig()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst, err := RandomInstance(rng, cfg, 8, 6, 2, 24, 0.4, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(inst.Arrivals) == 0 {
			continue
		}
		opt, err := Optimal(inst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Exact {
			t.Fatalf("seed %d: OPT not proven", seed)
		}
		alg, err := NewOnline(inst, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Run(); err != nil {
			t.Fatal(err)
		}
		if alg.TotalCost() < opt.Cost-1e-6 {
			t.Errorf("seed %d: online %v below OPT %v", seed, alg.TotalCost(), opt.Cost)
		}
		gCost, gSol, err := Greedy(inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyFeasible(inst, gSol); err != nil {
			t.Errorf("seed %d greedy infeasible: %v", seed, err)
		}
		if gCost < opt.Cost-1e-6 {
			t.Errorf("seed %d: greedy %v below OPT %v", seed, gCost, opt.Cost)
		}
		lb, err := LPLowerBound(inst)
		if err != nil {
			t.Fatal(err)
		}
		if lb > opt.Cost+1e-6 {
			t.Errorf("seed %d: LP bound %v above OPT %v", seed, lb, opt.Cost)
		}
	}
}

func TestRepetitionsOnlineFeasible(t *testing.T) {
	cfg := smallConfig()
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst, err := RepetitionsInstance(rng, cfg, 6, 8, 4, 40, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewOnline(inst, rng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Run(); err != nil {
			t.Fatal(err)
		}
		if err := VerifyFeasible(inst, alg.Bought()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestNonLeasingReduction(t *testing.T) {
	fam, _ := NewFamily(3, [][]int{{0, 1}, {1, 2}, {0, 2}})
	arrivals := []workload.ElementArrival{
		{T: 0, Elem: 0, P: 1}, {T: 50, Elem: 1, P: 2}, {T: 900, Elem: 2, P: 1},
	}
	inst, err := NonLeasingInstance(fam, []float64{1, 2, 3}, arrivals, PerArrival)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Cfg.K() != 1 {
		t.Fatalf("K = %d, want 1", inst.Cfg.K())
	}
	if inst.Cfg.LMax() < 901 {
		t.Fatalf("l_1 = %d does not span the horizon", inst.Cfg.LMax())
	}
	alg, err := NewOnline(inst, rand.New(rand.NewSource(2)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(inst, alg.Bought()); err != nil {
		t.Errorf("infeasible: %v", err)
	}
	// With a single infinite lease type, a bought set stays usable: total
	// cost is at most the sum of all set costs.
	if alg.TotalCost() > 6+1e-9 {
		t.Errorf("cost %v exceeds family total 6", alg.TotalCost())
	}
	if _, err := NonLeasingInstance(fam, []float64{1}, arrivals, PerArrival); err == nil {
		t.Error("wrong-length costs accepted")
	}
}

func TestRandomFamilyExactDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fam, err := RandomFamily(rng, 20, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < fam.N(); e++ {
		if got := len(fam.Containing(e)); got != 4 {
			t.Errorf("element %d in %d sets, want exactly 4", e, got)
		}
	}
	if fam.Delta() != 4 {
		t.Errorf("Delta = %d, want 4", fam.Delta())
	}
	if _, err := RandomFamily(rng, 5, 3, 4); err == nil {
		t.Error("delta > m accepted")
	}
	if _, err := RandomFamily(rng, 0, 3, 1); err == nil {
		t.Error("empty universe accepted")
	}
}

func TestCandidatesExcludes(t *testing.T) {
	fam, _ := NewFamily(2, [][]int{{0, 1}, {1}})
	cfg := smallConfig()
	inst := mustInstance(t, fam, cfg, [][]float64{{1, 2}, {1, 2}}, nil, PerArrival)
	all := inst.Candidates(nil, 1, 5, nil)
	if len(all) != 4 { // 2 sets x 2 types
		t.Fatalf("candidates = %d, want 4", len(all))
	}
	some := inst.Candidates(nil, 1, 5, []int{0})
	if len(some) != 2 {
		t.Fatalf("candidates with exclusion = %d, want 2", len(some))
	}
	for _, c := range some {
		if c.Set != 1 {
			t.Errorf("excluded set appeared: %+v", c)
		}
		if !c.Covers(cfg, 5) {
			t.Errorf("candidate %+v does not cover t=5", c)
		}
	}
}

func TestScopeString(t *testing.T) {
	if PerArrival.String() != "per-arrival" || PerElement.String() != "per-element" {
		t.Error("scope strings wrong")
	}
	if ExclusionScope(9).String() == "" {
		t.Error("unknown scope string empty")
	}
}

func TestRoundingDrawsAblationKnob(t *testing.T) {
	fam, _ := NewFamily(4, [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	cfg := smallConfig()
	arrivals := []workload.ElementArrival{{T: 0, Elem: 0, P: 1}, {T: 4, Elem: 2, P: 1}}
	inst := mustInstance(t, fam, cfg, RandomCosts(rand.New(rand.NewSource(1)), 4, cfg, 0), arrivals, PerArrival)
	for _, draws := range []int{1, 4, 16} {
		alg, err := NewOnline(inst, rand.New(rand.NewSource(9)), Options{RoundingDraws: draws})
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Run(); err != nil {
			t.Fatal(err)
		}
		if err := VerifyFeasible(inst, alg.Bought()); err != nil {
			t.Errorf("draws=%d: %v", draws, err)
		}
	}
}

// TestArriveAllocatesNothing pins the arrival path's scratch reuse: once
// warm, a PerArrival demand builds its exclusions and candidates in
// buffers the algorithm owns, so with the purchase log's capacity
// reserved (the log is output, and grows with it) an arrival allocates
// nothing.
func TestArriveAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst, err := RandomInstance(rng, lease.PowerConfig(3, 4, 0.5), 32, 32, 3, 1, 0, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, rng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tm int64
	arrive := func() {
		if err := alg.Arrive(tm, int(tm%32), 1+int(tm%2)); err != nil {
			t.Fatal(err)
		}
		tm++
	}
	for range 1000 {
		arrive()
	}
	alg.log = slices.Grow(alg.log, 1<<16)
	if n := testing.AllocsPerRun(1000, arrive); n != 0 {
		t.Errorf("an arrival allocates %v times, want 0", n)
	}
}
