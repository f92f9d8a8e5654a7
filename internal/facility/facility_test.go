package facility

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"leasing/internal/lease"
	"leasing/internal/metric"
	"leasing/internal/stream"
	"leasing/internal/workload"
)

func facConfig() *lease.Config {
	return lease.MustConfig(
		lease.Type{Length: 1, Cost: 2},
		lease.Type{Length: 4, Cost: 5},
	)
}

func TestNewInstanceValidation(t *testing.T) {
	cfg := facConfig()
	sites := []metric.Point{{X: 0, Y: 0}}
	if _, err := NewInstance(lease.MustConfig(lease.Type{Length: 3, Cost: 1}), sites, [][]float64{{1}}, nil); err == nil {
		t.Error("non-interval config accepted")
	}
	if _, err := NewInstance(cfg, nil, nil, nil); err == nil {
		t.Error("no sites accepted")
	}
	if _, err := NewInstance(cfg, sites, [][]float64{{1, 2}, {3, 4}}, nil); err == nil {
		t.Error("cost row count mismatch accepted")
	}
	if _, err := NewInstance(cfg, sites, [][]float64{{1}}, nil); err == nil {
		t.Error("short cost row accepted")
	}
	if _, err := NewInstance(cfg, sites, [][]float64{{1, 0}}, nil); err == nil {
		t.Error("zero cost accepted")
	}
	if _, err := NewInstance(cfg, sites, [][]float64{{1, 2}}, nil); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestSingleClientSingleFacility(t *testing.T) {
	cfg := facConfig()
	inst, err := NewInstance(cfg,
		[]metric.Point{{X: 0, Y: 0}},
		[][]float64{{2, 5}},
		[][]metric.Point{{{X: 3, Y: 0}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	// The facility must open with the cheaper type (potential reaches
	// 3 + 2 = 5 for type 0 before 3 + 5 = 8 for type 1), and the client
	// connects at distance 3: total = 2 + 3 = 5.
	if math.Abs(alg.TotalCost()-5) > 1e-6 {
		t.Errorf("total = %v, want 5", alg.TotalCost())
	}
	leases, assigns := alg.Solution()
	cost, err := VerifySolution(inst, leases, assigns)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-alg.TotalCost()) > 1e-6 {
		t.Errorf("verified cost %v != reported %v", cost, alg.TotalCost())
	}
	if math.Abs(alg.DualTotal()-5) > 1e-6 {
		t.Errorf("dual = %v, want 5 (alpha-hat = 5)", alg.DualTotal())
	}
}

func TestColocatedClientsShareOneFacility(t *testing.T) {
	cfg := facConfig()
	pts := make([]metric.Point, 6)
	for i := range pts {
		pts[i] = metric.Point{X: 1, Y: 1}
	}
	inst, err := NewInstance(cfg,
		[]metric.Point{{X: 1, Y: 1}, {X: 50, Y: 50}},
		[][]float64{{2, 5}, {2, 5}},
		[][]metric.Point{pts},
	)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	// All clients sit on facility 0: open it once (cost 2), zero connection.
	if math.Abs(alg.TotalCost()-2) > 1e-6 {
		t.Errorf("total = %v, want 2", alg.TotalCost())
	}
	if alg.ConnectionCost() > 1e-9 {
		t.Errorf("connection cost = %v, want 0", alg.ConnectionCost())
	}
}

func TestLeaseReuseAcrossSteps(t *testing.T) {
	// A client at the same spot in 4 consecutive steps: with a length-4
	// lease costing 5 vs 4 daily leases costing 8, the algorithm should
	// not exceed the cost of the naive daily strategy, and the long-lease
	// OPT is 5.
	cfg := facConfig()
	batches := make([][]metric.Point, 4)
	for tstep := range batches {
		batches[tstep] = []metric.Point{{X: 0, Y: 0}}
	}
	inst, err := NewInstance(cfg, []metric.Point{{X: 0, Y: 0}}, [][]float64{{2, 5}}, batches)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	leases, assigns := alg.Solution()
	if _, err := VerifySolution(inst, leases, assigns); err != nil {
		t.Fatal(err)
	}
	opt, err := Optimal(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Exact || math.Abs(opt.Cost-5) > 1e-6 {
		t.Errorf("OPT = %+v, want exact 5 (one long lease)", opt)
	}
	if alg.TotalCost() < opt.Cost-1e-6 {
		t.Errorf("online %v below OPT %v", alg.TotalCost(), opt.Cost)
	}
}

func TestOnlineFeasibleAndBoundedOnRandomInstances(t *testing.T) {
	cfg := facConfig()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst, err := RandomInstance(rng, cfg, GenParams{
			Sites: 3, Steps: 6, Pattern: workload.PatternConstant,
			Base: 2, MaxPerStep: 2, WorldSize: 20, CostSpread: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewOnline(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		leases, assigns := alg.Solution()
		cost, err := VerifySolution(inst, leases, assigns)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(cost-alg.TotalCost()) > 1e-6 {
			t.Fatalf("seed %d: verified %v != reported %v", seed, cost, alg.TotalCost())
		}
		// Lemma 4.1: cost <= (3+K) * dual.
		bound := float64(3+cfg.K()) * alg.DualTotal()
		if alg.TotalCost() > bound+1e-6 {
			t.Errorf("seed %d: cost %v exceeds (3+K)*dual = %v", seed, alg.TotalCost(), bound)
		}
		opt, err := Optimal(inst, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !opt.Exact {
			t.Logf("seed %d: OPT not proven (bound %v)", seed, opt.Lower)
			continue
		}
		if alg.TotalCost() < opt.Cost-1e-6 {
			t.Errorf("seed %d: online %v below OPT %v", seed, alg.TotalCost(), opt.Cost)
		}
		// Theorem 4.5 with the Lemma 2.6 transfer: 4*(3+K)*H_lmax. Measured
		// runs should sit far below; assert the theorem bound holds.
		h := workload.HSeries(inst.BatchCounts())
		if h < 1 {
			h = 1
		}
		if ratio := alg.TotalCost() / opt.Cost; ratio > 4*float64(3+cfg.K())*h+1e-6 {
			t.Errorf("seed %d: ratio %v above theorem bound", seed, ratio)
		}
		checkLeaserMatchesSolution(t, inst, Options{})
	}
}

// checkLeaserMatchesSolution steps a fresh Online over inst through the
// stream adapter and checks the adapter's Snapshot against the
// algorithm's own Solution. The adapter takes each step's assignments
// from the live round's tail, so this catches a step that rewrites an
// earlier client's assignment.
func checkLeaserMatchesSolution(t *testing.T, inst *Instance, opts Options) {
	t.Helper()
	alg, err := NewOnline(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLeaser(alg)
	for step, batch := range inst.Batches {
		if _, err := l.Observe(stream.Event{Time: int64(step), Payload: stream.Batch{Clients: batch}}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	leases, assigns := alg.Solution()
	want := stream.Solution{Leases: []stream.ItemLease{}, Assignments: []stream.Assignment{}}
	for _, fl := range leases {
		want.Leases = append(want.Leases, stream.ItemLease{Item: fl.Facility, K: fl.K, Start: fl.Start})
	}
	for _, a := range assigns {
		want.Assignments = append(want.Assignments, stream.Assignment{Item: a.Facility, K: a.K, Cost: a.Dist})
	}
	if got := l.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("Leaser snapshot %+v != Solution %+v", got, want)
	}
}

func TestNaiveBaselines(t *testing.T) {
	cfg := facConfig()
	rng := rand.New(rand.NewSource(9))
	inst, err := RandomInstance(rng, cfg, GenParams{
		Sites: 3, Steps: 8, Pattern: workload.PatternConstant,
		Base: 2, MaxPerStep: 2, WorldSize: 30, CostSpread: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	daily, dl, da, err := RentDaily(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySolution(inst, dl, da); err != nil {
		t.Errorf("RentDaily infeasible: %v", err)
	}
	long, ll, la, err := BuyLongest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySolution(inst, ll, la); err != nil {
		t.Errorf("BuyLongest infeasible: %v", err)
	}
	if daily <= 0 || long <= 0 {
		t.Error("baseline costs must be positive")
	}
	opt, err := Optimal(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Exact {
		if daily < opt.Cost-1e-6 || long < opt.Cost-1e-6 {
			t.Errorf("baseline beat OPT: daily %v long %v opt %v", daily, long, opt.Cost)
		}
	}
}

func TestMISOrderAblationRuns(t *testing.T) {
	cfg := facConfig()
	rng := rand.New(rand.NewSource(4))
	inst, err := RandomInstance(rng, cfg, GenParams{
		Sites: 4, Steps: 5, Pattern: workload.PatternConstant,
		Base: 2, MaxPerStep: 3, WorldSize: 25, CostSpread: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []MISOrder{ByOpeningTime, ByIndex} {
		alg, err := NewOnline(inst, Options{MISOrder: order})
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Run(); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		leases, assigns := alg.Solution()
		if _, err := VerifySolution(inst, leases, assigns); err != nil {
			t.Errorf("order %d infeasible: %v", order, err)
		}
	}
	if _, err := NewOnline(inst, Options{MISOrder: MISOrder(42)}); err == nil {
		t.Error("unknown MIS order accepted")
	}
}

func TestResetEachRoundStaysFeasible(t *testing.T) {
	cfg := facConfig() // l_max = 4, so 12 steps span 3 rounds
	rng := rand.New(rand.NewSource(77))
	inst, err := RandomInstance(rng, cfg, GenParams{
		Sites: 3, Steps: 12, Pattern: workload.PatternConstant,
		Base: 2, MaxPerStep: 2, WorldSize: 25, CostSpread: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(inst, Options{ResetEachRound: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	leases, assigns := alg.Solution()
	if len(assigns) != inst.NumClients() {
		t.Fatalf("got %d assignments for %d clients (archives lost?)", len(assigns), inst.NumClients())
	}
	cost, err := VerifySolution(inst, leases, assigns)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-alg.TotalCost()) > 1e-6 {
		t.Errorf("verified %v != reported %v", cost, alg.TotalCost())
	}
	// Dual-fitting bound still holds per round.
	if alg.TotalCost() > float64(3+cfg.K())*alg.DualTotal()+1e-6 {
		t.Errorf("cost %v exceeds (3+K)*dual %v under round reset", alg.TotalCost(), float64(3+cfg.K())*alg.DualTotal())
	}
	checkLeaserMatchesSolution(t, inst, Options{ResetEachRound: true})
}

func TestStepOrderEnforced(t *testing.T) {
	cfg := facConfig()
	inst, _ := NewInstance(cfg, []metric.Point{{}}, [][]float64{{2, 5}}, nil)
	alg, err := NewOnline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Step(3, []metric.Point{{X: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := alg.Step(2, []metric.Point{{X: 1}}); err == nil {
		t.Error("step regression accepted")
	}
	if err := alg.Step(9, nil); err != nil {
		t.Errorf("empty batch errored: %v", err)
	}
}

func TestInstanceHelpers(t *testing.T) {
	cfg := facConfig()
	inst, _ := NewInstance(cfg, []metric.Point{{}}, [][]float64{{2, 5}},
		[][]metric.Point{{{X: 1}}, {}, {{X: 2}, {X: 3}}})
	if inst.NumClients() != 3 {
		t.Errorf("NumClients = %d, want 3", inst.NumClients())
	}
	if inst.Steps() != 3 {
		t.Errorf("Steps = %d, want 3", inst.Steps())
	}
	cl := inst.Clients()
	if len(cl) != 3 || cl[0].Arrived != 0 || cl[2].Arrived != 2 {
		t.Errorf("Clients() = %+v", cl)
	}
	bc := inst.BatchCounts()
	if len(bc) != 3 || bc[0] != 1 || bc[1] != 0 || bc[2] != 2 {
		t.Errorf("BatchCounts() = %v", bc)
	}
}

func TestVerifySolutionRejects(t *testing.T) {
	cfg := facConfig()
	inst, _ := NewInstance(cfg, []metric.Point{{}}, [][]float64{{2, 5}},
		[][]metric.Point{{{X: 1}}})
	// Wrong assignment count.
	if _, err := VerifySolution(inst, nil, nil); err == nil {
		t.Error("missing assignments accepted")
	}
	// Assignment without covering lease.
	if _, err := VerifySolution(inst, nil, []Assignment{{Facility: 0, K: 0}}); err == nil {
		t.Error("uncovered assignment accepted")
	}
	// Out-of-range lease.
	if _, err := VerifySolution(inst, []FacilityLease{{Facility: 7, K: 0, Start: 0}}, []Assignment{{Facility: 0, K: 0}}); err == nil {
		t.Error("bad lease accepted")
	}
	// Duplicate lease.
	dup := []FacilityLease{{Facility: 0, K: 0, Start: 0}, {Facility: 0, K: 0, Start: 0}}
	if _, err := VerifySolution(inst, dup, []Assignment{{Facility: 0, K: 0}}); err == nil {
		t.Error("duplicate lease accepted")
	}
	// Valid.
	ok := []FacilityLease{{Facility: 0, K: 0, Start: 0}}
	cost, err := VerifySolution(inst, ok, []Assignment{{Facility: 0, K: 0, Dist: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-3) > 1e-9 { // lease 2 + distance 1
		t.Errorf("cost = %v, want 3", cost)
	}
}

func TestMetricGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fs := metric.RandomPoints(rng, 5, 50)
	cs, err := metric.ClusteredPoints(rng, fs, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !metric.CheckQuadrilateral(fs, cs) {
		t.Error("Euclidean points violate quadrilateral inequality")
	}
	if _, err := metric.ClusteredPoints(rng, nil, 5, 1); err == nil {
		t.Error("no centers accepted")
	}
	g := metric.GridPoints(10, 2)
	if len(g) != 10 {
		t.Errorf("GridPoints(10) returned %d points", len(g))
	}
	if metric.Dist(metric.Point{X: 0, Y: 0}, metric.Point{X: 3, Y: 4}) != 5 {
		t.Error("Dist(3-4-5) != 5")
	}
}
