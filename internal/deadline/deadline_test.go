package deadline

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"leasing/internal/lease"
	"leasing/internal/setcover"
	"leasing/internal/workload"
)

func oldConfig() *lease.Config {
	return lease.MustConfig(
		lease.Type{Length: 2, Cost: 1},
		lease.Type{Length: 16, Cost: 4},
	)
}

func TestNewInstanceValidation(t *testing.T) {
	cfg := oldConfig()
	if _, err := NewInstance(lease.MustConfig(lease.Type{Length: 3, Cost: 1}), nil); !errors.Is(err, ErrNotIntervalModel) {
		t.Errorf("non-interval accepted: %v", err)
	}
	if _, err := NewInstance(cfg, []workload.DeadlineClient{{T: 0, D: -1}}); err == nil {
		t.Error("negative slack accepted")
	}
	if _, err := NewInstance(cfg, []workload.DeadlineClient{{T: 5}, {T: 1}}); err == nil {
		t.Error("unsorted clients accepted")
	}
	in, err := NewInstance(cfg, []workload.DeadlineClient{{T: 0, D: 3}, {T: 2, D: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if in.DMax() != 3 || !in.Uniform() {
		t.Errorf("DMax=%d Uniform=%v", in.DMax(), in.Uniform())
	}
}

func TestOnlineBuysAtArrivalAndDeadline(t *testing.T) {
	// Single client (0, 5) with types (2,$1) and (16,$4): duals rise to 1
	// making every short lease intersecting [0,5] tight; the algorithm buys
	// the short lease covering day 0 and mirrors it at day 5: cost 2.
	alg, err := NewOnline(oldConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Arrive(0, 5); err != nil {
		t.Fatal(err)
	}
	if math.Abs(alg.TotalCost()-2) > 1e-9 {
		t.Errorf("cost = %v, want 2 (leases at 0 and at deadline 5)", alg.TotalCost())
	}
	if !alg.ServedWithin(0, 5) {
		t.Error("client unserved")
	}
	if !alg.DualFeasible() {
		t.Error("dual infeasible")
	}
	ls := alg.Leases()
	if len(ls) != 2 || ls[0] != (lease.Lease{K: 0, Start: 0}) || ls[1] != (lease.Lease{K: 0, Start: 4}) {
		t.Errorf("leases = %v, want short at 0 and short at 4 (covering day 5)", ls)
	}
}

func TestSkipRuleServesIntersectingClientFree(t *testing.T) {
	alg, err := NewOnline(oldConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Arrive(0, 6); err != nil { // deadline day 6
		t.Fatal(err)
	}
	costAfterFirst := alg.TotalCost()
	// Window [4, 9] contains day 6 → skip, no new cost.
	if err := alg.Arrive(4, 5); err != nil {
		t.Fatal(err)
	}
	if alg.TotalCost() != costAfterFirst {
		t.Errorf("intersecting client changed cost: %v -> %v", costAfterFirst, alg.TotalCost())
	}
	if alg.Skips() != 1 {
		t.Errorf("skips = %d, want 1", alg.Skips())
	}
	if !alg.ServedWithin(4, 5) {
		t.Error("skipped client actually unserved")
	}
}

func TestOnlineErrors(t *testing.T) {
	if _, err := NewOnline(lease.MustConfig(lease.Type{Length: 5, Cost: 1})); !errors.Is(err, ErrNotIntervalModel) {
		t.Errorf("error = %v, want ErrNotIntervalModel", err)
	}
	alg, _ := NewOnline(oldConfig())
	if err := alg.Arrive(0, -2); err == nil {
		t.Error("negative slack accepted")
	}
	if err := alg.Arrive(9, 0); err != nil {
		t.Fatal(err)
	}
	if err := alg.Arrive(3, 0); err == nil {
		t.Error("time regression accepted")
	}
}

func TestParkingPermitSpecialCase(t *testing.T) {
	// With all slacks zero OLD degenerates to the parking permit problem;
	// the mirror purchase at t+d coincides with the Step-1 lease, so the
	// cost matches the classical primal-dual behaviour (ratio <= 2K).
	cfg := oldConfig()
	rng := rand.New(rand.NewSource(17))
	var clients []workload.DeadlineClient
	for day := int64(0); day < 64; day++ {
		if rng.Float64() < 0.4 {
			clients = append(clients, workload.DeadlineClient{T: day, D: 0})
		}
	}
	in, err := NewInstance(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	alg, _ := NewOnline(cfg)
	if err := alg.Run(in); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(in, alg.Leases()); err != nil {
		t.Error(err)
	}
	opt, err := Optimal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := alg.TotalCost() / opt; ratio > 2*float64(cfg.K())+1e-6 {
		t.Errorf("d=0 ratio %v exceeds 2K", ratio)
	}
}

func TestUniformOLDWithinTheoremBound(t *testing.T) {
	cfg := oldConfig()
	k := float64(cfg.K())
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clients := workload.UniformDeadlineStream(rng, 96, 0.35, 6)
		if len(clients) == 0 {
			continue
		}
		in, err := NewInstance(cfg, clients)
		if err != nil {
			t.Fatal(err)
		}
		alg, _ := NewOnline(cfg)
		if err := alg.Run(in); err != nil {
			t.Fatal(err)
		}
		if err := VerifyFeasible(in, alg.Leases()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !alg.DualFeasible() {
			t.Fatalf("seed %d: dual infeasible", seed)
		}
		opt, err := Optimal(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if alg.DualTotal() > opt+1e-6 {
			t.Fatalf("seed %d: weak duality violated (dual %v > OPT %v)", seed, alg.DualTotal(), opt)
		}
		// Theorem 5.3: uniform OLD is 2K-competitive.
		if ratio := alg.TotalCost() / opt; ratio > 2*k+1e-6 {
			t.Errorf("seed %d: uniform ratio %v > 2K = %v", seed, ratio, 2*k)
		}
	}
}

func TestNonUniformOLDWithinTheoremBound(t *testing.T) {
	cfg := oldConfig()
	k := float64(cfg.K())
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		clients := workload.DeadlineStream(rng, 96, 0.35, 8)
		if len(clients) == 0 {
			continue
		}
		in, err := NewInstance(cfg, clients)
		if err != nil {
			t.Fatal(err)
		}
		alg, _ := NewOnline(cfg)
		if err := alg.Run(in); err != nil {
			t.Fatal(err)
		}
		if err := VerifyFeasible(in, alg.Leases()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt, err := Optimal(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		bound := k + float64(in.DMax())/float64(cfg.LMin()) + 1 // Theorem 5.3 plus rounding slack
		if ratio := alg.TotalCost() / opt; ratio > bound+1e-6 {
			t.Errorf("seed %d: ratio %v > K + dmax/lmin = %v", seed, ratio, bound)
		}
		lb, err := LPLowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		if lb > opt+1e-6 {
			t.Errorf("seed %d: LP bound %v above OPT %v", seed, lb, opt)
		}
	}
}

func TestGreedySingleTypeMatchesILP(t *testing.T) {
	cfg := lease.MustConfig(lease.Type{Length: 4, Cost: 1})
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clients := workload.DeadlineStream(rng, 64, 0.4, 10)
		in, err := NewInstance(cfg, clients)
		if err != nil {
			t.Fatal(err)
		}
		gCost, gSol, err := GreedySingleType(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyFeasible(in, gSol); err != nil {
			t.Fatalf("seed %d greedy infeasible: %v", seed, err)
		}
		opt, err := Optimal(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gCost-opt) > 1e-6 {
			t.Errorf("seed %d: greedy %v != ILP %v", seed, gCost, opt)
		}
	}
	if _, _, err := GreedySingleType(&Instance{Cfg: oldConfig()}); err == nil {
		t.Error("greedy accepted K=2")
	}
}

func TestTightExampleRatioThetaDmaxOverLmin(t *testing.T) {
	in, err := TightInstance(2, 32, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewOnline(in.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(in); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFeasible(in, alg.Leases()); err != nil {
		t.Fatal(err)
	}
	opt, err := Optimal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt-1.01) > 1e-6 {
		t.Errorf("OPT = %v, want 1.01 (the long lease)", opt)
	}
	ratio := alg.TotalCost() / opt
	lowerTarget := 0.5 * float64(32) / float64(in.Cfg.LMin())
	if ratio < lowerTarget {
		t.Errorf("tight example ratio %v, want >= %v (Θ(dmax/lmin))", ratio, lowerTarget)
	}
	if _, err := TightInstance(4, 4, 0.1); err == nil {
		t.Error("dmax < 2*lmin accepted")
	}
}

func newSCLDFixture(t *testing.T, seed int64, horizon int64, dmax int64) *SCLDInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fam, err := setcover.RandomFamily(rng, 8, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := oldConfig()
	costs := setcover.RandomCosts(rng, fam.M(), cfg, 0.5)
	var arrivals []SCLDArrival
	for day := int64(0); day < horizon; day++ {
		if rng.Float64() < 0.4 {
			d := int64(0)
			if dmax > 0 {
				d = rng.Int63n(dmax + 1)
			}
			arrivals = append(arrivals, SCLDArrival{T: day, Elem: rng.Intn(8), D: d})
		}
	}
	inst, err := NewSCLDInstance(fam, cfg, costs, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSCLDOnlineFeasibleAndAboveOPT(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		inst := newSCLDFixture(t, seed, 40, 6)
		alg, err := NewSCLDOnline(inst, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := alg.Run(); err != nil {
			t.Fatal(err)
		}
		if err := VerifySCLDFeasible(inst, alg.Bought()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt, proven, err := SCLDOptimal(inst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !proven {
			t.Logf("seed %d: OPT not proven, skipping ratio check", seed)
			continue
		}
		if alg.TotalCost() < opt-1e-6 {
			t.Errorf("seed %d: online %v below OPT %v", seed, alg.TotalCost(), opt)
		}
	}
}

func TestSCLDValidation(t *testing.T) {
	fam, _ := setcover.NewFamily(3, [][]int{{0, 1}, {1, 2}})
	cfg := oldConfig()
	good := [][]float64{{1, 2}, {1, 2}}
	if _, err := NewSCLDInstance(fam, lease.MustConfig(lease.Type{Length: 3, Cost: 1}), [][]float64{{1}, {1}}, nil); err == nil {
		t.Error("non-interval accepted")
	}
	if _, err := NewSCLDInstance(fam, cfg, [][]float64{{1, 2}}, nil); err == nil {
		t.Error("cost row count accepted")
	}
	if _, err := NewSCLDInstance(fam, cfg, [][]float64{{1}, {1}}, nil); err == nil {
		t.Error("short cost row accepted")
	}
	if _, err := NewSCLDInstance(fam, cfg, good, []SCLDArrival{{T: 0, Elem: 9, D: 0}}); err == nil {
		t.Error("unknown element accepted")
	}
	if _, err := NewSCLDInstance(fam, cfg, good, []SCLDArrival{{T: 0, Elem: 0, D: -1}}); err == nil {
		t.Error("negative slack accepted")
	}
	if _, err := NewSCLDInstance(fam, cfg, good, []SCLDArrival{{T: 4, Elem: 0, D: 0}, {T: 1, Elem: 0, D: 0}}); err == nil {
		t.Error("unsorted arrivals accepted")
	}
	inst, err := NewSCLDInstance(fam, cfg, good, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSCLDOnline(inst, nil); err == nil {
		t.Error("nil rng accepted")
	}
	alg, _ := NewSCLDOnline(inst, rand.New(rand.NewSource(1)))
	if err := alg.Arrive(0, 9, 0); err == nil {
		t.Error("bad element accepted")
	}
	if err := alg.Arrive(0, 0, -1); err == nil {
		t.Error("negative slack accepted")
	}
	if err := alg.Arrive(5, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := alg.Arrive(1, 0, 0); err == nil {
		t.Error("time regression accepted")
	}
}

func TestSCLDZeroSlackIsSetCoverLeasing(t *testing.T) {
	// With all slacks zero SCLD is exactly SetCoverLeasing; verify the run
	// stays feasible and the fractional cost is tracked (Corollary 5.8's
	// time-independent algorithm).
	inst := newSCLDFixture(t, 42, 48, 0)
	alg, err := NewSCLDOnline(inst, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Run(); err != nil {
		t.Fatal(err)
	}
	if err := VerifySCLDFeasible(inst, alg.Bought()); err != nil {
		t.Fatal(err)
	}
	if len(inst.Arrivals) > 0 && alg.FractionalCost() <= 0 {
		t.Error("fractional cost not tracked")
	}
}

// TestUnboundedSlackRejected: a window that ends past the largest time,
// or names more than MaxCandidates aligned leases, fails its arrival
// before the algorithm reads any candidate state or draws from its rng,
// so the next window is served exactly as on a fresh algorithm.
func TestUnboundedSlackRejected(t *testing.T) {
	const tm = 100
	slacks := []struct {
		d    int64
		want string
	}{
		{math.MaxInt64, "largest time"},
		{math.MaxInt64 - tm, "candidate leases"},
		{1 << 40, "candidate leases"},
	}
	fam, _ := setcover.NewFamily(3, [][]int{{0, 1}, {1, 2}})
	inst, err := NewSCLDInstance(fam, oldConfig(), [][]float64{{1, 2}, {1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sl := range slacks {
		alg, _ := NewOnline(oldConfig())
		if err := alg.Arrive(tm, sl.d); err == nil || !strings.Contains(err.Error(), sl.want) {
			t.Errorf("OLD slack %d: error %v, want one about %q", sl.d, err, sl.want)
		}
		ref, _ := NewOnline(oldConfig())
		for _, a := range []*Online{alg, ref} {
			if err := a.Arrive(tm, 3); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(alg.Leases(), ref.Leases()) || alg.DualTotal() != ref.DualTotal() {
			t.Errorf("OLD slack %d: the failed arrival changed the next one's outcome", sl.d)
		}

		rng := rand.New(rand.NewSource(1))
		sc, _ := NewSCLDOnline(inst, rng)
		if err := sc.Arrive(tm, 1, sl.d); err == nil || !strings.Contains(err.Error(), sl.want) {
			t.Errorf("SCLD slack %d: error %v, want one about %q", sl.d, err, sl.want)
		}
		if rng.Int63() != rand.New(rand.NewSource(1)).Int63() {
			t.Errorf("SCLD slack %d: the failed arrival drew from the rng", sl.d)
		}
	}
}

// TestCandidateBoundIsExact: with one type of length 2, a window from
// an aligned start names d/2 + 1 leases, so MaxCandidates of them pass
// and one more fails. A window the skip rule serves names none, so its
// slack is not bounded.
func TestCandidateBoundIsExact(t *testing.T) {
	cfg := lease.MustConfig(lease.Type{Length: 2, Cost: 1})
	alg, _ := NewOnline(cfg)
	if err := alg.Arrive(0, 2*(MaxCandidates-1)); err != nil {
		t.Errorf("a window of exactly MaxCandidates leases: %v", err)
	}
	alg, _ = NewOnline(cfg)
	if err := alg.Arrive(0, 2*MaxCandidates); err == nil {
		t.Error("a window of MaxCandidates+1 leases accepted")
	}

	alg, _ = NewOnline(oldConfig())
	if err := alg.Arrive(0, 6); err != nil { // deadline day 6
		t.Fatal(err)
	}
	if err := alg.Arrive(4, 1<<40); err != nil || alg.Skips() != 1 {
		t.Errorf("window [4, 4+2^40] holds day 6: error %v, skips %d, want served by the skip rule", err, alg.Skips())
	}
}
