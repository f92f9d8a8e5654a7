package experiments

import (
	"fmt"
	"math/rand"

	"leasing/internal/facility"
	"leasing/internal/lease"
	"leasing/internal/metric"
	"leasing/internal/sim"
	"leasing/internal/stats"
	"leasing/internal/stream"
	"leasing/internal/workload"
)

// facilityExperiments declares the Chapter 4 experiments implemented in
// this file (plus the Chapter 1 cloud-subcontractor narrative E14).
func facilityExperiments() []Info {
	return []Info{
		{ID: "E9", Paper: "Thm 4.5 / Cor 4.6-4.7", Chapter: "4", Predicted: "(3+K)*H_lmax per arrival pattern",
			Summary: "facility leasing ratio tracks (3+K)*H_lmax per arrival pattern", Run: e9FacilityLeasing},
		{ID: "E14", Paper: "Fig 1.2 / Sec 1.3", Chapter: "1", Predicted: "bounded premium in both regimes; naive strategies lose one each",
			Summary: "cloud subcontractor narrative: primal-dual vs naive strategies", Run: e14CloudSubcontractor},
		{ID: "E15", Paper: "Sec 4.3 phase 2", Chapter: "4", Predicted: "ablation; all arms feasible, round reset no worse than full history",
			Summary: "ablation: MIS ordering in the conflict graphs", Run: e15MISAblation},
	}
}

func facilityLeaseConfig() *lease.Config {
	return lease.MustConfig(
		lease.Type{Length: 1, Cost: 3},
		lease.Type{Length: 4, Cost: 7},
		lease.Type{Length: 8, Cost: 10},
	)
}

// facilityTrial runs the primal-dual algorithm on a random instance and
// compares against the exact optimum (or its proven lower bound when the
// search is truncated).
func facilityTrial(rng *rand.Rand, lcfg *lease.Config, p facility.GenParams) (float64, float64, float64, error) {
	inst, err := facility.RandomInstance(rng, lcfg, p)
	if err != nil {
		return 0, 0, 0, err
	}
	alg, err := facility.NewOnline(inst, facility.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	online, err := replayTotal(facility.NewLeaser(alg), stream.Batches(inst.Batches))
	if err != nil {
		return 0, 0, 0, err
	}
	leases, assigns := alg.Solution()
	if _, err := facility.VerifySolution(inst, leases, assigns); err != nil {
		return 0, 0, 0, err
	}
	opt, err := facility.Optimal(inst, 4000)
	if err != nil {
		return 0, 0, 0, err
	}
	baseline := opt.Cost
	if !opt.Exact {
		baseline = opt.Lower
	}
	h := workload.HSeries(inst.BatchCounts())
	return online, baseline, h, nil
}

// e9FacilityLeasing sweeps the arrival patterns of Corollary 4.7 and the
// conjectured-hard exponential pattern, reporting the measured ratio next
// to the (3+K)*H_lmax guide of Theorem 4.5.
func e9FacilityLeasing(cfg Config) (*sim.Table, error) {
	patterns := []workload.ArrivalPattern{
		workload.PatternConstant,
		workload.PatternNonIncreasing,
		workload.PatternPolynomial,
		workload.PatternExponential,
	}
	trials := 4
	steps := 8
	maxPerStep := 12
	if cfg.Quick {
		patterns = patterns[:2]
		trials = 2
		steps = 4
		maxPerStep = 4
	}
	lcfg := facilityLeaseConfig()
	tb := &sim.Table{
		Title:   "E9 facility leasing (Thm 4.5 / Cor 4.7): ratio per arrival pattern",
		Columns: []string{"pattern", "trials", "H_lmax", "mean_ratio", "max_ratio", "(3+K)*H"},
		Note:    "natural patterns stay near (3+K)*H_lmax with small H; the exponential pattern inflates H toward Theta(lmax)",
	}
	for _, pat := range patterns {
		// Per-trial slots for the H series keep the closure race-free
		// under the worker pool.
		hs := stats.NewSeries(trials)
		s, err := sim.RatiosIndexed(trials, cfg.Seed+int64(pat)*101, cfg.Workers, func(i int, rng *rand.Rand) (float64, float64, error) {
			online, baseline, h, err := facilityTrial(rng, lcfg, facility.GenParams{
				Sites: 3, Steps: steps, Pattern: pat, Base: 1,
				MaxPerStep: maxPerStep, WorldSize: 40, CostSpread: 0.3,
			})
			if err != nil {
				return 0, 0, err
			}
			hs.Set(i, h)
			return online, baseline, nil
		})
		if err != nil {
			return nil, err
		}
		h := hs.Mean()
		bound := float64(3+lcfg.K()) * h
		tb.MustAddRow(pat.String(), sim.D(s.N), sim.F(h), sim.F(s.Mean), sim.F(s.Max), sim.F(bound))
	}
	return tb, nil
}

// e14CloudSubcontractor plays the Section 1.3 narrative: a subcontractor
// leasing cloud machines (facilities) for calling clients. Two demand
// regimes expose the naive strategies — steady demand punishes rent-daily,
// sparse demand punishes buy-longest — while the primal-dual algorithm
// stays robust in both.
func e14CloudSubcontractor(cfg Config) (*sim.Table, error) {
	steps := 32
	if cfg.Quick {
		steps = 8
	}
	lcfg := facilityLeaseConfig() // 1 day $3, 4 days $7, 8 days $10
	rng := rand.New(rand.NewSource(cfg.Seed + 14))
	sites := []struct{ x, y float64 }{{5, 5}, {30, 8}, {18, 28}}

	makeInstance := func(busy func(t int) int) (*facility.Instance, error) {
		siteP := make([]metric.Point, len(sites))
		for i, s := range sites {
			siteP[i] = metric.Point{X: s.x, Y: s.y}
		}
		batches := make([][]metric.Point, steps)
		for t := 0; t < steps; t++ {
			for c := 0; c < busy(t); c++ {
				s := siteP[rng.Intn(len(siteP))]
				batches[t] = append(batches[t], metric.Point{
					X: s.X + rng.NormFloat64(),
					Y: s.Y + rng.NormFloat64(),
				})
			}
		}
		costs := make([][]float64, len(siteP))
		for i := range costs {
			costs[i] = []float64{lcfg.Cost(0), lcfg.Cost(1), lcfg.Cost(2)}
		}
		return facility.NewInstance(lcfg, siteP, costs, batches)
	}

	scenarios := []struct {
		name string
		busy func(t int) int
	}{
		{"steady (2 calls/day)", func(t int) int { return 2 }},
		{"sparse (1 call/8 days)", func(t int) int {
			if t%8 == 0 {
				return 1
			}
			return 0
		}},
	}

	tb := &sim.Table{
		Title:   "E14 cloud subcontractor (Fig 1.2): strategy robustness across demand regimes",
		Columns: []string{"scenario", "strategy", "cost", "ratio_vs_opt"},
		Note:    "each naive strategy is near-optimal in one regime and pays for it in the other (and its worst case grows with l_max); the Chapter 4 algorithm pays a bounded constant-factor premium in both, which is exactly what a worst-case guarantee buys",
	}
	for _, sc := range scenarios {
		inst, err := makeInstance(sc.busy)
		if err != nil {
			return nil, err
		}
		alg, err := facility.NewOnline(inst, facility.Options{})
		if err != nil {
			return nil, err
		}
		if _, err := replayTotal(facility.NewLeaser(alg), stream.Batches(inst.Batches)); err != nil {
			return nil, err
		}
		leases, assigns := alg.Solution()
		if _, err := facility.VerifySolution(inst, leases, assigns); err != nil {
			return nil, err
		}
		daily, dl, da, err := facility.RentDaily(inst)
		if err != nil {
			return nil, err
		}
		if _, err := facility.VerifySolution(inst, dl, da); err != nil {
			return nil, err
		}
		long, ll, la, err := facility.BuyLongest(inst)
		if err != nil {
			return nil, err
		}
		if _, err := facility.VerifySolution(inst, ll, la); err != nil {
			return nil, err
		}
		opt, err := facility.Optimal(inst, 6000)
		if err != nil {
			return nil, err
		}
		baseline := opt.Cost
		if !opt.Exact {
			baseline = opt.Lower
		}
		tb.MustAddRow(sc.name, "primal-dual (Ch 4)", sim.F(alg.TotalCost()), sim.F(alg.TotalCost()/baseline))
		tb.MustAddRow(sc.name, "rent-daily", sim.F(daily), sim.F(daily/baseline))
		tb.MustAddRow(sc.name, "buy-longest", sim.F(long), sim.F(long/baseline))
		tb.MustAddRow(sc.name, "offline optimum", sim.F(baseline), "1.000")
	}
	return tb, nil
}

// e15MISAblation compares the two phase-2 orderings, opening-time order
// (what the analysis assumes) against arbitrary site-index order, and
// the two bidding-history scopes: the current l_max round (the served
// default) against the literal D_{<=t} of the pseudocode. The instances
// span several rounds, so the scopes actually differ.
func e15MISAblation(cfg Config) (*sim.Table, error) {
	trials := 8
	rounds := 3
	if cfg.Quick {
		trials = 3
		rounds = 2
	}
	lcfg := facilityLeaseConfig()
	steps := rounds * int(lcfg.LMax())
	variants := []struct {
		name string
		opts facility.Options
	}{
		{"by-opening-time", facility.Options{}},
		{"by-site-index", facility.Options{MISOrder: facility.ByIndex}},
		{"full-history", facility.Options{FullHistory: true}},
	}
	costs := make([]stats.Accumulator, len(variants))
	ratios := make([]stats.Accumulator, len(variants))
	perDual := make([]stats.Accumulator, len(variants))
	exact := 0
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*271))
		inst, err := facility.RandomInstance(rng, lcfg, facility.GenParams{
			Sites: 4, Steps: steps, Pattern: workload.PatternConstant, Base: 2,
			MaxPerStep: 3, WorldSize: 40, CostSpread: 0.4,
		})
		if err != nil {
			return nil, err
		}
		opt, err := facility.Optimal(inst, 4000)
		if err != nil {
			return nil, err
		}
		baseline := opt.Lower
		if opt.Exact {
			baseline = opt.Cost
			exact++
		}
		for vi, v := range variants {
			alg, err := facility.NewOnline(inst, v.opts)
			if err != nil {
				return nil, err
			}
			if _, err := replayTotal(facility.NewLeaser(alg), stream.Batches(inst.Batches)); err != nil {
				return nil, err
			}
			leases, assigns := alg.Solution()
			if _, err := facility.VerifySolution(inst, leases, assigns); err != nil {
				return nil, err
			}
			costs[vi].Add(alg.TotalCost())
			ratios[vi].Add(alg.TotalCost() / baseline)
			perDual[vi].Add(alg.TotalCost() / alg.DualTotal())
		}
	}
	tb := &sim.Table{
		Title:   fmt.Sprintf("E15 ablation: phase-2 MIS ordering and bidding-history scope over %d rounds of l_max", rounds),
		Columns: []string{"variant", "trials", "mean_cost", "mean_ratio", "mean_cost/dual"},
		Note: fmt.Sprintf("all variants stay feasible; by-opening-time and by-site-index bid over the current round only (the served default), full-history over every client so far (the literal D_{<=t}); "+
			"mean_ratio divides by the offline optimum where it is proven exact (%d of %d instances here) and by its proven lower bound elsewhere; mean_cost/dual is TotalCost/DualTotal, at most 3+K by Lemma 4.1", exact, trials),
	}
	for vi, v := range variants {
		tb.MustAddRow(v.name, sim.D(costs[vi].N()), sim.F(costs[vi].Mean()), sim.F(ratios[vi].Mean()), sim.F(perDual[vi].Mean()))
	}
	return tb, nil
}
