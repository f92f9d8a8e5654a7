package deadline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"leasing/internal/ilp"
	"leasing/internal/lease"
	"leasing/internal/lp"
	"leasing/internal/setcover"
)

// SCLDArrival is one demand of SetCoverLeasingWithDeadlines: element Elem
// arrives at day T and must be covered by a set leased over some day of
// [T, T+D].
type SCLDArrival struct {
	T    int64
	Elem int
	D    int64
}

// SCLDInstance bundles a set system, lease configuration, per-set leasing
// costs, and a deadline demand stream (Section 5.5, Figure 5.4).
type SCLDInstance struct {
	Fam      *setcover.Family
	Cfg      *lease.Config
	Costs    [][]float64
	Arrivals []SCLDArrival
}

// NewSCLDInstance validates the input.
func NewSCLDInstance(fam *setcover.Family, cfg *lease.Config, costs [][]float64, arrivals []SCLDArrival) (*SCLDInstance, error) {
	if !cfg.IsIntervalModel() {
		return nil, ErrNotIntervalModel
	}
	if len(costs) != fam.M() {
		return nil, fmt.Errorf("deadline: %d cost rows for %d sets", len(costs), fam.M())
	}
	for s, row := range costs {
		if len(row) != cfg.K() {
			return nil, fmt.Errorf("deadline: cost row %d has %d entries, want %d", s, len(row), cfg.K())
		}
		for k, c := range row {
			if !(c > 0) {
				return nil, fmt.Errorf("deadline: cost[%d][%d] = %v, want > 0", s, k, c)
			}
		}
	}
	var lastT int64
	for i, a := range arrivals {
		if a.Elem < 0 || a.Elem >= fam.N() {
			return nil, fmt.Errorf("deadline: arrival %d element %d outside universe", i, a.Elem)
		}
		if a.D < 0 {
			return nil, fmt.Errorf("deadline: arrival %d negative slack", i)
		}
		if i > 0 && a.T < lastT {
			return nil, fmt.Errorf("deadline: arrival %d out of order", i)
		}
		lastT = a.T
	}
	return &SCLDInstance{Fam: fam, Cfg: cfg, Costs: costs, Arrivals: arrivals}, nil
}

// candidates returns the triples (S, k, start) with Elem in S whose windows
// intersect [t, t+d].
func (in *SCLDInstance) candidates(e int, t, d int64) []setcover.SetLease {
	var out []setcover.SetLease
	for _, s := range in.Fam.Containing(e) {
		for k := 0; k < in.Cfg.K(); k++ {
			for _, l := range in.Cfg.Intersecting(k, t, t+d) {
				out = append(out, setcover.SetLease{Set: s, K: k, Start: l.Start})
			}
		}
	}
	return out
}

// SCLDOnline is Algorithm 5: fractional multiplicative increments over the
// deadline-widened candidate list, randomized rounding with per-triple
// min-of-2⌈log2(l_max)⌉-uniform thresholds, and a cheapest-candidate
// fallback. Setting every slack to zero recovers the time-independent
// SetCoverLeasing algorithm of Corollary 5.8.
type SCLDOnline struct {
	inst      *SCLDInstance
	rng       *rand.Rand
	draws     int
	live      *lease.Live[setcover.TripleState] // the live candidates' state, per (set, type)
	cands     []setcover.SetLease               // the current demand's candidates
	state     []*setcover.TripleState           // and their state
	log       []setcover.SetLease               // bought, in buy order: append-only
	total     float64
	fracCost  float64
	fallbacks int
	lastT     int64
	started   bool
}

// NewSCLDOnline builds the algorithm; rng supplies threshold draws.
func NewSCLDOnline(inst *SCLDInstance, rng *rand.Rand) (*SCLDOnline, error) {
	if rng == nil {
		return nil, errors.New("deadline: nil rng")
	}
	draws := 2 * int(math.Ceil(math.Log2(float64(inst.Cfg.LMax()+1))))
	if draws < 1 {
		draws = 1
	}
	return &SCLDOnline{
		inst:  inst,
		rng:   rng,
		draws: draws,
		live:  lease.NewLive[setcover.TripleState](inst.Cfg, inst.Fam.M()),
	}, nil
}

func (o *SCLDOnline) buy(sl setcover.SetLease, tr *setcover.TripleState) {
	tr.Bought = true
	o.log = append(o.log, sl)
	o.total += o.inst.Costs[sl.Set][sl.K]
}

// liveCandidates collects the demand's candidates, in the order
// SCLDInstance.candidates lists them, with their live state. Each
// (set, type) slot's run starts at the aligned start covering t, so
// reading it retires the slot's expired starts. A window that ends past
// the largest time or names more than MaxCandidates candidates fails
// before any state is read.
func (o *SCLDOnline) liveCandidates(e int, t, d int64) error {
	end, err := windowEnd(t, d)
	if err != nil {
		return err
	}
	cfg := o.inst.Cfg
	sets := o.inst.Fam.Containing(e)
	if err := checkCandidates(cfg, t, end, len(sets)); err != nil {
		return err
	}
	o.cands, o.state = o.cands[:0], o.state[:0]
	for _, s := range sets {
		for k := 0; k < cfg.K(); k++ {
			from, l := cfg.AlignedStart(k, t), cfg.Length(k)
			run := o.live.Run(s, k, from, cfg.AlignedStart(k, end))
			for i := range run {
				o.cands = append(o.cands, setcover.SetLease{Set: s, K: k, Start: from + int64(i)*l})
				o.state = append(o.state, &run[i])
			}
		}
	}
	return nil
}

// Arrive processes the demand (element e, window [t, t+d]).
func (o *SCLDOnline) Arrive(t int64, e int, d int64) error {
	if o.started && t < o.lastT {
		return fmt.Errorf("deadline: arrival at %d precedes %d", t, o.lastT)
	}
	o.started, o.lastT = true, t
	if e < 0 || e >= o.inst.Fam.N() {
		return fmt.Errorf("deadline: element %d outside universe", e)
	}
	if d < 0 {
		return fmt.Errorf("deadline: negative slack %d", d)
	}
	if err := o.liveCandidates(e, t, d); err != nil {
		return err
	}
	cands, st := o.cands, o.state
	if len(cands) == 0 {
		return fmt.Errorf("deadline: element %d in no set", e)
	}

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

	covered := false
	for i, c := range cands {
		tr := st[i]
		if tr.Bought {
			covered = true
			continue
		}
		if tr.Frac > tr.Threshold(o.rng, o.draws) {
			o.buy(c, tr)
			covered = true
		}
	}
	if covered {
		return nil
	}
	o.fallbacks++
	best := 0
	bestCost := o.inst.Costs[cands[0].Set][cands[0].K]
	for i, c := range cands[1:] {
		if cc := o.inst.Costs[c.Set][c.K]; cc < bestCost {
			best, bestCost = i+1, cc
		}
	}
	o.buy(cands[best], st[best])
	return nil
}

// Run feeds the whole instance through the algorithm.
func (o *SCLDOnline) Run() error {
	for _, a := range o.inst.Arrivals {
		if err := o.Arrive(a.T, a.Elem, a.D); err != nil {
			return err
		}
	}
	return nil
}

// TotalCost returns the integral solution cost.
func (o *SCLDOnline) TotalCost() float64 { return o.total }

// FractionalCost returns the accumulated fractional cost (Lemma 5.5).
func (o *SCLDOnline) FractionalCost() float64 { return o.fracCost }

// Fallbacks returns how often the cheapest-candidate fallback fired.
func (o *SCLDOnline) Fallbacks() int { return o.fallbacks }

// Bought returns the leased triples in canonical (set, type, start)
// order, so snapshots built from it are identical across runs.
func (o *SCLDOnline) Bought() []setcover.SetLease {
	out := append([]setcover.SetLease{}, o.log...)
	setcover.SortSetLeases(out)
	return out
}

// BoughtSince returns the triples leased after the first n, in buy
// order. The slice aliases the purchase log; callers must not mutate it.
func (o *SCLDOnline) BoughtSince(n int) []setcover.SetLease { return o.log[n:] }

// VerifySCLDFeasible checks every arrival has a bought triple of a
// containing set whose window intersects the arrival's window.
func VerifySCLDFeasible(inst *SCLDInstance, bought []setcover.SetLease) error {
	owned := make(map[setcover.SetLease]struct{}, len(bought))
	for _, sl := range bought {
		owned[sl] = struct{}{}
	}
	for i, a := range inst.Arrivals {
		ok := false
		for _, c := range inst.candidates(a.Elem, a.T, a.D) {
			if _, got := owned[c]; got {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("deadline: arrival %d (elem %d, window [%d,%d]) unserved", i, a.Elem, a.T, a.T+a.D)
		}
	}
	return nil
}

// SCLDLPLowerBound returns the LP-relaxation lower bound on the SCLD
// optimum, used for instances too large for exact branch and bound (the
// time-independence experiment of Corollary 5.8 grows the horizon far past
// what exact search handles).
func SCLDLPLowerBound(inst *SCLDInstance) (float64, error) {
	if len(inst.Arrivals) == 0 {
		return 0, nil
	}
	candIdx := map[setcover.SetLease]int{}
	var cands []setcover.SetLease
	for _, a := range inst.Arrivals {
		for _, c := range inst.candidates(a.Elem, a.T, a.D) {
			if _, ok := candIdx[c]; !ok {
				candIdx[c] = len(cands)
				cands = append(cands, c)
			}
		}
	}
	costs := make([]float64, len(cands))
	for i, c := range cands {
		costs[i] = inst.Costs[c.Set][c.K]
	}
	prob := lp.NewMinimize(costs)
	for _, a := range inst.Arrivals {
		row := map[int]float64{}
		for _, c := range inst.candidates(a.Elem, a.T, a.D) {
			row[candIdx[c]] = 1
		}
		if err := prob.Add(row, lp.GE, 1); err != nil {
			return 0, err
		}
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("deadline: SCLD LP status %v", sol.Status)
	}
	return sol.Objective, nil
}

// SCLDOptimal computes the exact offline optimum of an SCLD instance by
// branch and bound. nodeLimit <= 0 uses the solver default.
func SCLDOptimal(inst *SCLDInstance, nodeLimit int) (float64, bool, error) {
	if len(inst.Arrivals) == 0 {
		return 0, true, nil
	}
	candIdx := map[setcover.SetLease]int{}
	var cands []setcover.SetLease
	for _, a := range inst.Arrivals {
		for _, c := range inst.candidates(a.Elem, a.T, a.D) {
			if _, ok := candIdx[c]; !ok {
				candIdx[c] = len(cands)
				cands = append(cands, c)
			}
		}
	}
	costs := make([]float64, len(cands))
	for i, c := range cands {
		costs[i] = inst.Costs[c.Set][c.K]
	}
	prob := ilp.NewBinaryMinimize(costs)
	for _, a := range inst.Arrivals {
		row := map[int]float64{}
		for _, c := range inst.candidates(a.Elem, a.T, a.D) {
			row[candIdx[c]] = 1
		}
		if err := prob.Add(row, lp.GE, 1); err != nil {
			return 0, false, err
		}
	}
	res, err := prob.Solve(ilp.Options{NodeLimit: nodeLimit})
	if err != nil {
		return 0, false, fmt.Errorf("deadline: SCLD ILP: %w", err)
	}
	return res.Objective, res.Proven, nil
}
