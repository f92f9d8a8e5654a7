// Package deadline implements Chapter 5 of the thesis: online leasing with
// flexible demands. In OnlineLeasingWithDeadlines (OLD) a client arriving
// at day t with slack d may be served on any day of its window [t, t+d] by
// any lease covering that day; the deterministic primal-dual algorithm of
// Section 5.3 is Θ(K + d_max/l_min)-competitive (O(K) when all slacks are
// equal). The package also implements the tight example of Proposition 5.4
// (Figure 5.3), SetCoverLeasingWithDeadlines (SCLD, Section 5.5) with its
// randomized algorithm, and exact offline optima for both.
package deadline

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"leasing/internal/lease"
	"leasing/internal/workload"
)

const tightEps = 1e-9

// MaxCandidates bounds how many aligned leases one demand may name as
// candidates: the leases of every type that intersect its window
// [t, t+d], for each set containing its element in SCLD. The algorithms
// keep state for every candidate, so a demand past the bound fails
// instead of asking for that much memory. It admits slacks up to about
// MaxCandidates·l_min, far beyond any window where the Θ(K + d_max/l_min)
// bound of Section 5.3 says anything useful.
const MaxCandidates = 1 << 16

// windowEnd returns the last day t+d of a window with slack d >= 0, or
// an error when it overflows int64.
func windowEnd(t, d int64) (int64, error) {
	if t > 0 && d > math.MaxInt64-t {
		return 0, fmt.Errorf("deadline: window of slack %d at %d ends past the largest time", d, t)
	}
	return t + d, nil
}

// checkCandidates returns an error when the aligned leases intersecting
// [t, end], over every type and for each of items items, number more
// than MaxCandidates.
func checkCandidates(cfg *lease.Config, t, end int64, items int) error {
	var n int64
	for k := 0; k < cfg.K(); k++ {
		// Aligned starts divide exactly, and the quotients' difference
		// fits in int64 even where end minus the start would not.
		l := cfg.Length(k)
		n += min(cfg.AlignedStart(k, end)/l-cfg.AlignedStart(k, t)/l, MaxCandidates) + 1
	}
	if n*int64(items) > MaxCandidates {
		return fmt.Errorf("deadline: window [%d, %d] names more than %d candidate leases", t, end, MaxCandidates)
	}
	return nil
}

// ErrNotIntervalModel is returned when a configuration's lengths are not
// powers of two.
var ErrNotIntervalModel = errors.New("deadline: configuration is not in the interval model")

// Instance is an OLD input: a lease configuration and a client stream
// sorted by arrival day.
type Instance struct {
	Cfg     *lease.Config
	Clients []workload.DeadlineClient
}

// NewInstance validates the configuration and stream.
func NewInstance(cfg *lease.Config, clients []workload.DeadlineClient) (*Instance, error) {
	if !cfg.IsIntervalModel() {
		return nil, ErrNotIntervalModel
	}
	for i, c := range clients {
		if c.D < 0 {
			return nil, fmt.Errorf("deadline: client %d has negative slack", i)
		}
		if i > 0 && c.T < clients[i-1].T {
			return nil, fmt.Errorf("deadline: client %d out of order", i)
		}
	}
	return &Instance{Cfg: cfg, Clients: clients}, nil
}

// Uniform reports whether all clients share the same slack (uniform OLD).
func (in *Instance) Uniform() bool {
	for i := 1; i < len(in.Clients); i++ {
		if in.Clients[i].D != in.Clients[0].D {
			return false
		}
	}
	return true
}

// DMax returns the largest slack.
func (in *Instance) DMax() int64 {
	var d int64
	for _, c := range in.Clients {
		if c.D > d {
			d = c.D
		}
	}
	return d
}

// Online is the deterministic primal-dual algorithm of Section 5.3. On a
// client (t, d) that does not meet the deadline day of an earlier
// positive-dual client, the client's dual variable is raised until some
// candidate lease (any aligned lease intersecting [t, t+d]) becomes tight;
// all tight leases covering day t are bought (Step 1, at least one exists
// by Proposition 5.1) and their types are mirrored at day t+d (Step 2), so
// later intersecting clients are pre-served.
type Online struct {
	cfg        *lease.Config
	store      *lease.Store
	contrib    *lease.Live[float64] // the live candidates' accumulated duals, per type
	cands      []lease.Lease        // the current client's candidates
	state      []*float64           // and their contributions
	dual       float64
	infeasible bool    // some contribution exceeded its lease's cost
	posDuals   []int64 // sorted deadline days of positive-dual clients, from the current day on
	lastT      int64
	started    bool
	skips      int
}

// NewOnline builds the algorithm over an interval-model configuration.
func NewOnline(cfg *lease.Config) (*Online, error) {
	if !cfg.IsIntervalModel() {
		return nil, ErrNotIntervalModel
	}
	return &Online{
		cfg:     cfg,
		store:   lease.NewStore(cfg),
		contrib: lease.NewLive[float64](cfg, 1),
	}, nil
}

// Arrive processes a client with window [t, t+d].
func (o *Online) Arrive(t, d int64) error {
	if d < 0 {
		return fmt.Errorf("deadline: negative slack %d", d)
	}
	end, err := windowEnd(t, d)
	if err != nil {
		return err
	}
	if o.started && t < o.lastT {
		return fmt.Errorf("deadline: arrival at %d precedes %d", t, o.lastT)
	}
	o.started, o.lastT = true, t

	// Skip rule: a positive-dual earlier client whose deadline day falls in
	// our window has days t' and t'+d' covered, so we are already served.
	// Deadline days before t can never fall in a later window: drop them.
	lo := sort.Search(len(o.posDuals), func(i int) bool { return o.posDuals[i] >= t })
	o.posDuals = o.posDuals[lo:]
	if len(o.posDuals) > 0 && o.posDuals[0] <= end {
		o.skips++
		return nil
	}

	// The candidates are the aligned leases intersecting [t, t+d]: per
	// type, the run of starts from the one covering t.
	if err := checkCandidates(o.cfg, t, end, 1); err != nil {
		return err
	}
	o.cands, o.state = o.cands[:0], o.state[:0]
	for k := 0; k < o.cfg.K(); k++ {
		from, l := o.cfg.AlignedStart(k, t), o.cfg.Length(k)
		run := o.contrib.Run(0, k, from, o.cfg.AlignedStart(k, end))
		for i := range run {
			o.cands = append(o.cands, lease.Lease{K: k, Start: from + int64(i)*l})
			o.state = append(o.state, &run[i])
		}
	}
	cands, contrib := o.cands, o.state
	// Step 1: raise the dual until some candidate is tight.
	slack := math.Inf(1)
	for i, c := range cands {
		slack = min(slack, o.cfg.Cost(c.K)-*contrib[i])
	}
	if slack > tightEps {
		o.dual += slack
		for i, c := range cands {
			*contrib[i] += slack
			if *contrib[i] > o.cfg.Cost(c.K)+tightEps {
				o.infeasible = true
			}
		}
		// Record the deadline day for the skip rule.
		at := sort.Search(len(o.posDuals), func(i int) bool { return o.posDuals[i] >= end })
		o.posDuals = append(o.posDuals, 0)
		copy(o.posDuals[at+1:], o.posDuals[at:])
		o.posDuals[at] = end
	}
	// Buy every tight candidate covering day t; mirror each bought type at
	// day t+d.
	boughtType := make([]bool, o.cfg.K())
	anyBought := false
	for i, c := range cands {
		if *contrib[i] < o.cfg.Cost(c.K)-tightEps {
			continue
		}
		if o.cfg.Covers(c, t) {
			o.store.Buy(c)
			boughtType[c.K] = true
			anyBought = true
		}
	}
	if !anyBought {
		// Proposition 5.1 guarantees a tight candidate in L_t; reaching this
		// point indicates a numerical failure we surface rather than hide.
		return fmt.Errorf("deadline: no tight lease covering day %d (window +%d)", t, d)
	}
	for k, b := range boughtType {
		if b {
			o.store.Buy(o.cfg.AlignedLease(k, end))
		}
	}
	return nil
}

// Run feeds the whole instance through the algorithm.
func (o *Online) Run(in *Instance) error {
	for _, c := range in.Clients {
		if err := o.Arrive(c.T, c.D); err != nil {
			return err
		}
	}
	return nil
}

// TotalCost returns the cost of all leases bought.
func (o *Online) TotalCost() float64 { return o.store.TotalCost() }

// DualTotal returns the dual objective (a lower bound on OPT by weak
// duality).
func (o *Online) DualTotal() float64 { return o.dual }

// Skips returns how many clients were served for free by the skip rule.
func (o *Online) Skips() int { return o.skips }

// Leases returns the bought leases.
func (o *Online) Leases() []lease.Lease { return o.store.Leases() }

// BoughtSince returns the leases bought after the first n, in buy order.
// The slice aliases the purchase log; callers must not mutate it.
func (o *Online) BoughtSince(n int) []lease.Lease { return o.store.BoughtSince(n) }

// DualFeasible verifies no lease's accumulated contribution exceeds its
// cost. A contribution only grows, so each is checked as it is raised
// and a violation is remembered.
func (o *Online) DualFeasible() bool { return !o.infeasible }

// ServedWithin reports whether the solution covers at least one day of the
// client window [t, t+d] — the OLD feasibility predicate.
func (o *Online) ServedWithin(t, d int64) bool {
	return servedWithin(o.cfg, o.store, t, d)
}

func servedWithin(cfg *lease.Config, store *lease.Store, t, d int64) bool {
	for day := t; day <= t+d; day++ {
		if store.Covers(day) {
			return true
		}
	}
	return false
}

// VerifyFeasible checks every client of the instance is served by sol.
func VerifyFeasible(in *Instance, sol []lease.Lease) error {
	st := lease.NewStore(in.Cfg)
	for _, l := range sol {
		st.Buy(l)
	}
	for i, c := range in.Clients {
		if !servedWithin(in.Cfg, st, c.T, c.D) {
			return fmt.Errorf("deadline: client %d (t=%d, d=%d) unserved", i, c.T, c.D)
		}
	}
	return nil
}
