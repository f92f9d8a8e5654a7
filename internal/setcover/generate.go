package setcover

import (
	"fmt"
	"math/rand"

	"leasing/internal/lease"
	"leasing/internal/workload"
)

// RandomFamily builds a set system over n elements and m sets where every
// element belongs to exactly delta distinct sets (so δ is exact and any
// multiplicity p <= delta is feasible for every element). Requires
// n >= 1 and 1 <= delta <= m; other sizes are an error.
func RandomFamily(rng *rand.Rand, n, m, delta int) (*Family, error) {
	if delta < 1 || delta > m {
		return nil, fmt.Errorf("setcover: delta %d outside [1,%d]", delta, m)
	}
	if n < 1 {
		return nil, fmt.Errorf("setcover: universe size %d < 1", n)
	}
	members := make([][]int, m)
	for e := 0; e < n; e++ {
		perm := rng.Perm(m)
		for _, s := range perm[:delta] {
			members[s] = append(members[s], e)
		}
	}
	// Pad empty sets with one random element each so the family validates;
	// padding never lowers δ below delta because it only adds memberships.
	for s := range members {
		if len(members[s]) == 0 {
			members[s] = append(members[s], rng.Intn(n))
		}
	}
	return NewFamily(n, members)
}

// RandomCosts draws per-set, per-type costs around the configuration's type
// costs: cost[s][k] = cfg.Cost(k) * U[1, 1+spread). A spread of 0 makes all
// sets equally priced.
func RandomCosts(rng *rand.Rand, m int, cfg *lease.Config, spread float64) [][]float64 {
	if spread < 0 {
		spread = 0
	}
	out := make([][]float64, m)
	for s := range out {
		row := make([]float64, cfg.K())
		f := 1 + rng.Float64()*spread
		for k := range row {
			row[k] = cfg.Cost(k) * f
		}
		out[s] = row
	}
	return out
}

// RandomInstance assembles a full SetMulticoverLeasing instance: a random
// family with exact δ, Zipf-popular element arrivals over the horizon with
// per-day probability pArrive, and multiplicities uniform in [1, pMax].
func RandomInstance(rng *rand.Rand, cfg *lease.Config, n, m, delta int, horizon int64, pArrive float64, pMax int, costSpread float64) (*Instance, error) {
	fam, err := RandomFamily(rng, n, m, delta)
	if err != nil {
		return nil, err
	}
	if pMax < 1 {
		pMax = 1
	}
	if pMax > delta {
		pMax = delta
	}
	zipf, err := workload.NewZipf(rng, n, 1.4)
	if err != nil {
		return nil, err
	}
	arrivals := workload.ElementStream(rng, horizon, pArrive,
		zipf.Draw,
		func() int { return 1 + rng.Intn(pMax) },
	)
	costs := RandomCosts(rng, m, cfg, costSpread)
	return NewInstance(fam, cfg, costs, arrivals, PerArrival)
}

// RepetitionsInstance assembles an OnlineSetCoverWithRepetitions instance
// (Corollary 3.5): elements arrive repeatedly (each arrival with p=1), and
// every arrival must be served by a fresh set; repetitions per element are
// capped at delta to keep the instance feasible.
func RepetitionsInstance(rng *rand.Rand, cfg *lease.Config, n, m, delta int, horizon int64, pArrive float64) (*Instance, error) {
	fam, err := RandomFamily(rng, n, m, delta)
	if err != nil {
		return nil, err
	}
	count := make([]int, n)
	var arrivals []workload.ElementArrival
	for t := int64(0); t < horizon; t++ {
		if rng.Float64() >= pArrive {
			continue
		}
		e := rng.Intn(n)
		if count[e] >= delta {
			continue
		}
		count[e]++
		arrivals = append(arrivals, workload.ElementArrival{T: t, Elem: e, P: 1})
	}
	costs := RandomCosts(rng, m, cfg, 0.5)
	return NewInstance(fam, cfg, costs, arrivals, PerElement)
}

// NonLeasingInstance wraps a family and arrival stream in the degenerate
// K=1, l_1=∞ configuration, reducing SetMulticoverLeasing to classical
// OnlineSetMulticover (Corollary 3.4). Set s costs setCosts[s].
func NonLeasingInstance(fam *Family, setCosts []float64, arrivals []workload.ElementArrival, scope ExclusionScope) (*Instance, error) {
	horizon := int64(1)
	if len(arrivals) > 0 {
		horizon = arrivals[len(arrivals)-1].T + 1
	}
	cfg := lease.SingleTypeConfig(horizon, 1)
	if len(setCosts) != fam.M() {
		return nil, fmt.Errorf("setcover: %d set costs for %d sets", len(setCosts), fam.M())
	}
	costs := make([][]float64, fam.M())
	for s, c := range setCosts {
		costs[s] = []float64{c}
	}
	return NewInstance(fam, cfg, costs, arrivals, scope)
}
