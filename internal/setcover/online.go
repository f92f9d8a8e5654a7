package setcover

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"leasing/internal/lease"
)

// Options tunes the online algorithm.
type Options struct {
	// RoundingDraws overrides the number q of independent uniform draws
	// whose minimum forms each triple's rounding threshold µ. The default
	// (0) uses the paper's 2*ceil(log2(n+1)) for PerArrival scope and
	// 2*ceil(log2(δ·n+1)) for PerElement scope (Corollary 3.5). Used by the
	// rounding ablation experiment.
	RoundingDraws int
}

// Online is the randomized algorithm of Section 3.3 (Algorithms 3 and 4):
// it maintains a monotone fraction per candidate triple, raises the
// fractions of a demand's candidates until they sum to one, rounds with
// per-triple min-of-uniforms thresholds, and falls back to buying the
// cheapest candidate when rounding leaves a layer uncovered.
type Online struct {
	inst  *Instance
	rng   *rand.Rand
	draws int
	live  *lease.Live[TripleState] // the live candidates' state, per (set, type)
	layer []SetLease               // the current layer's candidates
	cands []*TripleState           // and their state
	excl  []int                    // the sets the current arrival may no longer count
	log   []SetLease               // bought, in buy order: append-only
	// usedByElem lists, per element, the sets counted for earlier
	// arrivals (PerElement scope only).
	usedByElem map[int][]int
	total      float64
	fracCost   float64
	fallbacks  int
	lastT      int64
	started    bool
}

// NewOnline builds the online algorithm for an instance. rng drives both
// threshold sampling and nothing else; runs are reproducible per seed.
func NewOnline(inst *Instance, rng *rand.Rand, opts Options) (*Online, error) {
	if !inst.Cfg.IsIntervalModel() {
		return nil, errors.New("setcover: configuration is not in the interval model")
	}
	if rng == nil {
		return nil, errors.New("setcover: nil rng")
	}
	draws := opts.RoundingDraws
	if draws <= 0 {
		base := inst.Fam.N() + 1
		if inst.Scope == PerElement {
			base = inst.Fam.Delta()*inst.Fam.N() + 1
		}
		draws = 2 * int(math.Ceil(math.Log2(float64(base))))
		if draws < 1 {
			draws = 1
		}
	}
	return &Online{
		inst:       inst,
		rng:        rng,
		draws:      draws,
		live:       lease.NewLive[TripleState](inst.Cfg, inst.Fam.M()),
		usedByElem: make(map[int][]int),
	}, nil
}

// TripleState is the online state of one candidate triple while its
// window is live: its monotone fraction, its rounding threshold µ once
// drawn, and whether it is leased. The SCLD algorithm of package
// deadline keeps the same state.
type TripleState struct {
	Frac   float64
	mu     float64
	drawn  bool
	Bought bool
}

// Threshold lazily samples the triple's rounding threshold from rng: the
// minimum of draws independent uniforms, fixed for the triple's lifetime.
func (tr *TripleState) Threshold(rng *rand.Rand, draws int) float64 {
	if !tr.drawn {
		tr.mu, tr.drawn = 1.0, true
		for i := 0; i < draws; i++ {
			if u := rng.Float64(); u < tr.mu {
				tr.mu = u
			}
		}
	}
	return tr.mu
}

func (o *Online) buy(sl SetLease, tr *TripleState) {
	tr.Bought = true
	o.log = append(o.log, sl)
	o.total += o.inst.Costs[sl.Set][sl.K]
}

// Arrive processes the demand (element e, multiplicity p) at time t,
// leasing sets until p distinct sets containing e are leased over t.
func (o *Online) Arrive(t int64, e int, p int) error {
	if o.started && t < o.lastT {
		return fmt.Errorf("setcover: arrival at %d precedes %d", t, o.lastT)
	}
	o.started, o.lastT = true, t
	if e < 0 || e >= o.inst.Fam.N() {
		return fmt.Errorf("setcover: element %d outside universe", e)
	}
	if p < 1 {
		return fmt.Errorf("setcover: multiplicity %d < 1", p)
	}

	o.excl = o.excl[:0]
	if o.inst.Scope == PerElement {
		o.excl = append(o.excl, o.usedByElem[e]...)
	}
	for layer := 0; layer < p; layer++ {
		usedSet, err := o.coverOnce(t, e)
		if err != nil {
			return fmt.Errorf("setcover: element %d layer %d at %d: %w", e, layer, t, err)
		}
		o.excl = append(o.excl, usedSet)
		if o.inst.Scope == PerElement {
			o.usedByElem[e] = append(o.usedByElem[e], usedSet)
		}
	}
	return nil
}

// coverOnce is Algorithm 3 (i-Cover): it guarantees that after it returns,
// at least one candidate outside the exclusion list is leased, and returns
// the set chosen to account for this layer.
func (o *Online) coverOnce(t int64, e int) (int, error) {
	cands := o.inst.Candidates(o.layer[:0], e, t, o.excl)
	o.layer = cands
	if len(cands) == 0 {
		return 0, errors.New("no candidates left (infeasible demand)")
	}
	st := o.cands[:0]
	for _, c := range cands {
		st = append(st, o.live.At(c.Set, c.K, c.Start))
	}
	o.cands = st

	// Fractional phase: multiplicative increments until the candidate mass
	// reaches one.
	sum := 0.0
	for _, tr := range st {
		sum += tr.Frac
	}
	for sum < 1 {
		sum = 0
		for i, c := range cands {
			cost := o.inst.Costs[c.Set][c.K]
			f := st[i].Frac
			nf := f*(1+1/cost) + 1/(float64(len(cands))*cost)
			st[i].Frac = nf
			o.fracCost += (nf - f) * cost
			sum += nf
		}
	}

	// Rounding phase: lease every candidate whose fraction clears its
	// threshold; remember leased candidates (new or previously bought).
	chosen := -1
	chosenCost := math.Inf(1)
	for i, c := range cands {
		tr := st[i]
		if !tr.Bought && tr.Frac > tr.Threshold(o.rng, o.draws) {
			o.buy(c, tr)
		}
		if tr.Bought {
			if cc := o.inst.Costs[c.Set][c.K]; cc < chosenCost {
				chosen, chosenCost = c.Set, cc
			}
		}
	}
	if chosen >= 0 {
		return chosen, nil
	}

	// Fallback: lease the cheapest candidate to guarantee feasibility. The
	// analysis shows this fires with probability at most 1/n^2.
	o.fallbacks++
	best := 0
	bestCost := o.inst.Costs[cands[0].Set][cands[0].K]
	for i, c := range cands[1:] {
		if cc := o.inst.Costs[c.Set][c.K]; cc < bestCost {
			best, bestCost = i+1, cc
		}
	}
	o.buy(cands[best], st[best])
	return cands[best].Set, nil
}

// Run feeds the whole instance stream through the algorithm.
func (o *Online) Run() error {
	for _, a := range o.inst.Arrivals {
		if err := o.Arrive(a.T, a.Elem, a.P); err != nil {
			return err
		}
	}
	return nil
}

// TotalCost returns the integral solution cost so far.
func (o *Online) TotalCost() float64 { return o.total }

// FractionalCost returns the accumulated fractional cost (the quantity
// Lemma 3.1 bounds by O(log(δK)) * OPT).
func (o *Online) FractionalCost() float64 { return o.fracCost }

// Fallbacks returns how often the buy-cheapest fallback fired.
func (o *Online) Fallbacks() int { return o.fallbacks }

// Bought returns the leased triples in canonical (set, type, start)
// order, so snapshots built from it are identical across runs.
func (o *Online) Bought() []SetLease {
	out := append([]SetLease{}, o.log...)
	SortSetLeases(out)
	return out
}

// BoughtSince returns the triples leased after the first n, in buy
// order. The slice aliases the purchase log; callers must not mutate it.
func (o *Online) BoughtSince(n int) []SetLease { return o.log[n:] }

// VerifyFeasible replays the instance stream against the final solution and
// checks every arrival is covered by the required number of distinct sets.
// In PerArrival scope distinctness is local to each arrival; in PerElement
// scope (repetitions) the units of all arrivals of an element must be
// matched to pairwise-distinct sets, which is verified with bipartite
// matching per element. It is the package's feasibility oracle, shared by
// tests and the experiment harness.
func VerifyFeasible(inst *Instance, bought []SetLease) error {
	owned := make(map[SetLease]struct{}, len(bought))
	for _, sl := range bought {
		owned[sl] = struct{}{}
	}
	coveredBy := func(e int, t int64) []int {
		var sets []int
		for _, s := range inst.Fam.Containing(e) {
			for k := 0; k < inst.Cfg.K(); k++ {
				sl := SetLease{Set: s, K: k, Start: inst.Cfg.AlignedStart(k, t)}
				if _, ok := owned[sl]; ok {
					sets = append(sets, s)
					break
				}
			}
		}
		return sets
	}

	if inst.Scope == PerArrival {
		for i, a := range inst.Arrivals {
			if got := len(coveredBy(a.Elem, a.T)); got < a.P {
				return fmt.Errorf("setcover: arrival %d (elem %d, t %d) covered by %d sets, need %d", i, a.Elem, a.T, got, a.P)
			}
		}
		return nil
	}

	// PerElement: per element, match demand units (arrival copies) to
	// distinct sets via augmenting paths.
	byElem := map[int][]int{} // element -> arrival indices
	for i, a := range inst.Arrivals {
		byElem[a.Elem] = append(byElem[a.Elem], i)
	}
	for e, idxs := range byElem {
		var units [][]int // candidate set list per demand unit
		for _, i := range idxs {
			a := inst.Arrivals[i]
			sets := coveredBy(e, a.T)
			for u := 0; u < a.P; u++ {
				units = append(units, sets)
			}
		}
		if !matchable(units) {
			return fmt.Errorf("setcover: element %d: %d demand units cannot be matched to distinct leased sets", e, len(units))
		}
	}
	return nil
}

// matchable runs Kuhn's augmenting-path bipartite matching: every unit must
// be assigned a distinct set from its candidate list.
func matchable(units [][]int) bool {
	setOwner := map[int]int{} // set -> unit index
	var try func(u int, visited map[int]bool) bool
	try = func(u int, visited map[int]bool) bool {
		for _, s := range units[u] {
			if visited[s] {
				continue
			}
			visited[s] = true
			owner, taken := setOwner[s]
			if !taken || try(owner, visited) {
				setOwner[s] = u
				return true
			}
		}
		return false
	}
	for u := range units {
		if !try(u, map[int]bool{}) {
			return false
		}
	}
	return true
}
