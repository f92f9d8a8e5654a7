package facility

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"leasing/internal/core"
	"leasing/internal/metric"
)

const eps = 1e-9

// MISOrder selects how phase 2 orders temporarily open facilities when
// building each conflict graph's maximal independent set.
type MISOrder int

// MIS orderings.
const (
	// ByOpeningTime considers temporarily opened facilities in the order
	// they became tight (the Jain–Vazirani order the analysis assumes).
	ByOpeningTime MISOrder = iota + 1
	// ByIndex considers them in site-index order (the ablation arm of
	// experiment E15).
	ByIndex
)

// Options tunes the online algorithm. The zero value is the served rule:
// opening-time MIS order, with bids over the current round only.
type Options struct {
	// MISOrder defaults to ByOpeningTime.
	MISOrder MISOrder
	// FullHistory keeps the literal D_{<=t} of the paper's pseudocode:
	// every step re-runs phase 1 over every client seen so far, so a
	// step's cost grows with history. The default (false) bids over the
	// current round only, dropping the bids at each multiple of l_max —
	// the round boundaries along which Theorem 4.5's analysis
	// decomposes. Aligned leases never cross them, so every facility is
	// closed there and the rounds are independent sub-problems; the
	// (3+K)·H_lmax guarantee holds round by round. FullHistory is the
	// E15 ablation's comparison arm. Connections already made are
	// unaffected either way.
	FullHistory bool
}

// Online is the two-phase primal-dual algorithm of Section 4.3. Each time
// step: phase 1 raises client potentials continuously — a potential
// α_{jk} freezes when it reaches an open type-k facility or the client's
// cap α̂_j, and a closed facility opens temporarily the moment its bids
// sum to its lease cost (invariant INV1) — and phase 2 keeps a maximal
// independent set of each type's conflict graph, permanently leasing the
// survivors and reconnecting new clients through conflict witnesses
// (Proposition 4.2 bounds the detour by a factor 3). By default the
// bidding clients are those of the current l_max round, so a step costs
// the same however long the history (see Options.FullHistory).
type Online struct {
	inst        *Instance
	store       *core.ItemStore
	misOrder    MISOrder
	fullHistory bool

	clients  []clientState // clients still bidding: the current round's, or all under FullHistory
	retired  []Assignment  // assignments of clients dropped from bidding by round resets
	connCost float64
	dualSum  float64
	step     int64
}

type clientState struct {
	pos      metric.Point
	arrived  int64
	alphaHat float64
	dists    []float64 // distance to each site
	assign   Assignment
}

// NewOnline builds the online algorithm for an instance.
func NewOnline(inst *Instance, opts Options) (*Online, error) {
	order := opts.MISOrder
	if order == 0 {
		order = ByOpeningTime
	}
	if order != ByOpeningTime && order != ByIndex {
		return nil, fmt.Errorf("facility: unknown MIS order %d", int(order))
	}
	store, err := core.NewItemStore(inst.Cfg, inst.FacCosts)
	if err != nil {
		return nil, err
	}
	return &Online{inst: inst, store: store, misOrder: order, fullHistory: opts.FullHistory}, nil
}

// Run processes every batch of the instance in order.
func (o *Online) Run() error {
	for t, batch := range o.inst.Batches {
		if err := o.Step(int64(t), batch); err != nil {
			return err
		}
	}
	return nil
}

// Step processes the batch arriving at time t. Steps must be fed in
// increasing order.
func (o *Online) Step(t int64, batch []metric.Point) error {
	if t < o.step {
		return fmt.Errorf("facility: step %d after %d", t, o.step)
	}
	o.step = t + 1
	// A new round starts at each multiple of l_max; steps may skip it,
	// so compare against the oldest bidder's round rather than t itself.
	if roundStart := t - t%o.inst.Cfg.LMax(); !o.fullHistory && len(o.clients) > 0 && o.clients[0].arrived < roundStart {
		for _, cs := range o.clients {
			o.retired = append(o.retired, cs.assign)
		}
		o.clients = o.clients[:0]
	}
	newStart := len(o.clients)
	for _, p := range batch {
		cs := clientState{pos: p, arrived: t, alphaHat: math.Inf(1), assign: Assignment{Facility: -1}}
		cs.dists = make([]float64, len(o.inst.Sites))
		for i, s := range o.inst.Sites {
			cs.dists[i] = metric.Dist(s, p)
		}
		o.clients = append(o.clients, cs)
	}
	if len(batch) == 0 {
		return nil
	}

	ps, err := o.phase1(t)
	if err != nil {
		return err
	}
	o.phase2(t, ps, newStart)
	for j := newStart; j < len(o.clients); j++ {
		o.dualSum += o.clients[j].alphaHat
	}
	return nil
}

// phaseState carries phase-1 results into phase 2.
type phaseState struct {
	alpha    [][]float64 // final potential per (client, type)
	isOpen   [][]bool    // (site, type) open at the end of phase 1
	isTemp   [][]bool    // subset of isOpen opened this step
	openAt   [][]float64 // potential value at opening (0 for permanent)
	connType []int       // for new clients: the type they connected through
}

func (o *Online) phase1(t int64) (*phaseState, error) {
	var (
		n = len(o.clients)
		m = len(o.inst.Sites)
		k = o.inst.Cfg.K()
	)
	ps := &phaseState{
		alpha:    mat(n, k),
		isOpen:   matB(m, k),
		isTemp:   matB(m, k),
		openAt:   mat(m, k),
		connType: make([]int, n),
	}
	frozen := matB(n, k)
	for kk := 0; kk < k; kk++ {
		for i := 0; i < m; i++ {
			il := core.ItemLease{Item: i, K: kk, Start: o.inst.Cfg.AlignedStart(kk, t)}
			if o.store.Has(il) {
				ps.isOpen[i][kk] = true
			}
		}
	}

	// minOpenDist[j][k]: distance to the nearest open type-k facility.
	minOpen := mat(n, k)
	recomputeMinOpen := func(j, kk int) {
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if ps.isOpen[i][kk] && o.clients[j].dists[i] < best {
				best = o.clients[j].dists[i]
			}
		}
		minOpen[j][kk] = best
	}
	for j := 0; j < n; j++ {
		ps.connType[j] = -1
		for kk := 0; kk < k; kk++ {
			recomputeMinOpen(j, kk)
		}
	}

	// Per-facility client orderings by distance, computed once per step so
	// tight-time queries avoid re-sorting.
	orders := make([][]int, m)
	for i := 0; i < m; i++ {
		ord := make([]int, n)
		for j := range ord {
			ord[j] = j
		}
		sort.Slice(ord, func(a, b int) bool {
			return o.clients[ord[a]].dists[i] < o.clients[ord[b]].dists[i]
		})
		orders[i] = ord
	}

	active := n * k
	tau := 0.0
	maxEvents := 4*(n*k+m*k) + 16
	for ev := 0; active > 0; ev++ {
		if ev > maxEvents {
			return nil, errors.New("facility: phase 1 exceeded event budget (numerical stall)")
		}
		// Next freeze event.
		nextFreeze := math.Inf(1)
		for j := 0; j < n; j++ {
			for kk := 0; kk < k; kk++ {
				if frozen[j][kk] {
					continue
				}
				trig := math.Min(o.clients[j].alphaHat, minOpen[j][kk])
				if trig < nextFreeze {
					nextFreeze = trig
				}
			}
		}
		// Next facility-opening event.
		nextOpen := math.Inf(1)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				if ps.isOpen[i][kk] {
					continue
				}
				if ts := o.tightTime(ps, frozen, i, kk, tau, orders[i]); ts < nextOpen {
					nextOpen = ts
				}
			}
		}
		next := math.Min(nextFreeze, nextOpen)
		if math.IsInf(next, 1) {
			return nil, errors.New("facility: phase 1 stalled with active potentials")
		}
		if next < tau {
			next = tau
		}
		tau = next

		// Open every facility tight at tau.
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				if ps.isOpen[i][kk] {
					continue
				}
				if o.tightTime(ps, frozen, i, kk, tau, orders[i]) <= tau+eps {
					ps.isOpen[i][kk] = true
					ps.isTemp[i][kk] = true
					ps.openAt[i][kk] = tau
					for j := 0; j < n; j++ {
						if o.clients[j].dists[i] < minOpen[j][kk] {
							minOpen[j][kk] = o.clients[j].dists[i]
						}
					}
				}
			}
		}
		// Freeze cascade at tau: a new client's first facility-freeze sets
		// its cap, which immediately freezes its remaining potentials.
		for changed := true; changed; {
			changed = false
			for j := 0; j < n; j++ {
				for kk := 0; kk < k; kk++ {
					if frozen[j][kk] {
						continue
					}
					byFacility := minOpen[j][kk] <= tau+eps
					byCap := o.clients[j].alphaHat <= tau+eps
					if !byFacility && !byCap {
						continue
					}
					frozen[j][kk] = true
					ps.alpha[j][kk] = tau
					active--
					changed = true
					if byFacility && math.IsInf(o.clients[j].alphaHat, 1) {
						// New client connects to the nearest open type-k
						// facility it just reached.
						best, bestD := -1, math.Inf(1)
						for i := 0; i < m; i++ {
							if ps.isOpen[i][kk] && o.clients[j].dists[i] < bestD {
								best, bestD = i, o.clients[j].dists[i]
							}
						}
						o.clients[j].alphaHat = tau
						o.clients[j].assign = Assignment{Facility: best, K: kk, Dist: bestD}
						ps.connType[j] = kk
					}
				}
			}
		}
	}
	return ps, nil
}

// tightTime returns the earliest potential value tau* >= tau at which the
// bids toward the closed facility (i, k) would reach its cost, assuming no
// further freezes: frozen potentials contribute constants, active ones grow
// at unit rate past their distance kink. order lists clients sorted by
// distance to facility i.
func (o *Online) tightTime(ps *phaseState, frozen [][]bool, i, kk int, tau float64, order []int) float64 {
	c := o.inst.FacCosts[i][kk]
	base := 0.0
	for j := range o.clients {
		if !frozen[j][kk] {
			continue
		}
		if a, d := ps.alpha[j][kk], o.clients[j].dists[i]; a > d {
			base += a - d
		}
	}
	if base >= c-eps {
		return tau
	}
	// Walk active clients in distance order, accumulating the slope count
	// and distance mass; solve the linear piece that brackets tau*.
	cnt := 0
	sumD := 0.0
	pos := 0
	nextActive := func() (float64, bool) {
		for ; pos < len(order); pos++ {
			j := order[pos]
			if !frozen[j][kk] {
				d := o.clients[j].dists[i]
				pos++
				return d, true
			}
		}
		return 0, false
	}
	pending, havePending := nextActive()
	for havePending && pending <= tau {
		cnt++
		sumD += pending
		pending, havePending = nextActive()
	}
	cur := tau
	for {
		if cnt > 0 {
			tstar := (c - base + sumD) / float64(cnt)
			limit := math.Inf(1)
			if havePending {
				limit = pending
			}
			if tstar >= cur-eps && tstar <= limit+eps {
				return math.Max(tstar, cur)
			}
		}
		if !havePending {
			return math.Inf(1)
		}
		cur = pending
		cnt++
		sumD += pending
		pending, havePending = nextActive()
	}
}

// phase2 builds the per-type conflict graphs, keeps a maximal independent
// set (permanent facilities first), permanently leases surviving temporary
// facilities, and (re)connects the step's new clients.
func (o *Online) phase2(t int64, ps *phaseState, newStart int) {
	var (
		n = len(o.clients)
		m = len(o.inst.Sites)
		k = o.inst.Cfg.K()
	)
	selected := matB(m, k)

	conflict := func(kk, i1, i2 int) bool {
		for j := 0; j < n; j++ {
			a := ps.alpha[j][kk]
			d1 := o.clients[j].dists[i1]
			d2 := o.clients[j].dists[i2]
			if a > d1+eps && a > d2+eps {
				return true
			}
		}
		return false
	}

	for kk := 0; kk < k; kk++ {
		var temp []int
		for i := 0; i < m; i++ {
			if !ps.isOpen[i][kk] {
				continue
			}
			if ps.isTemp[i][kk] {
				temp = append(temp, i)
			} else {
				selected[i][kk] = true // permanent facilities always stay
			}
		}
		switch o.misOrder {
		case ByOpeningTime:
			sort.Slice(temp, func(a, b int) bool {
				if ps.openAt[temp[a]][kk] != ps.openAt[temp[b]][kk] {
					return ps.openAt[temp[a]][kk] < ps.openAt[temp[b]][kk]
				}
				return temp[a] < temp[b]
			})
		case ByIndex:
			sort.Ints(temp)
		}
		for _, i := range temp {
			free := true
			for i2 := 0; i2 < m; i2++ {
				if i2 != i && selected[i2][kk] && ps.isOpen[i2][kk] && conflict(kk, i, i2) {
					free = false
					break
				}
			}
			if free {
				selected[i][kk] = true
				il := core.ItemLease{Item: i, K: kk, Start: o.inst.Cfg.AlignedStart(kk, t)}
				if _, err := o.store.Buy(il); err != nil {
					// Indices are validated at construction; Buy cannot fail.
					panic(fmt.Sprintf("facility: buy %+v: %v", il, err))
				}
			}
		}
	}

	// Connect the new clients: keep the phase-1 facility if it survived,
	// otherwise route through a selected conflict neighbor (Prop 4.2).
	// Only this step's clients are written here, and phase 1 assigns a
	// client only while its alphaHat is +Inf, so no step rewrites an
	// earlier client's assignment: Leaser reads each step's assignments
	// from the live round's tail and relies on this.
	for j := newStart; j < n; j++ {
		cs := &o.clients[j]
		i, kk := cs.assign.Facility, cs.assign.K
		if i >= 0 && selected[i][kk] {
			o.connCost += cs.assign.Dist
			continue
		}
		bestI, bestD := -1, math.Inf(1)
		for i2 := 0; i2 < m; i2++ {
			if i2 == i || !selected[i2][kk] || !ps.isOpen[i2][kk] {
				continue
			}
			if conflict(kk, i, i2) && cs.dists[i2] < bestD {
				bestI, bestD = i2, cs.dists[i2]
			}
		}
		if bestI < 0 {
			// Maximality guarantees a selected neighbor exists; fall back to
			// the nearest selected facility of the same type to stay feasible
			// even under numerical ties.
			for i2 := 0; i2 < m; i2++ {
				if selected[i2][kk] && ps.isOpen[i2][kk] && cs.dists[i2] < bestD {
					bestI, bestD = i2, cs.dists[i2]
				}
			}
		}
		cs.assign = Assignment{Facility: bestI, K: kk, Dist: bestD}
		o.connCost += bestD
	}
}

// TotalCost returns leasing plus connection cost accumulated so far.
func (o *Online) TotalCost() float64 { return o.store.TotalCost() + o.connCost }

// LeaseCost returns the leasing part of the cost.
func (o *Online) LeaseCost() float64 { return o.store.TotalCost() }

// ConnectionCost returns the connection part of the cost.
func (o *Online) ConnectionCost() float64 { return o.connCost }

// DualTotal returns the sum of the client caps α̂_j, the dual objective of
// Lemma 4.1 (TotalCost <= (3+K) * DualTotal).
func (o *Online) DualTotal() float64 { return o.dualSum }

// Solution returns the bought facility leases and per-client assignments
// (in arrival order, including clients retired by round resets) for
// verification.
func (o *Online) Solution() ([]FacilityLease, []Assignment) {
	var leases []FacilityLease
	for _, il := range o.store.Leases() {
		leases = append(leases, FacilityLease{Facility: il.Item, K: il.K, Start: il.Start})
	}
	return leases, o.assignments()
}

// assignments returns every client's assignment in arrival order.
func (o *Online) assignments() []Assignment {
	assigns := make([]Assignment, 0, len(o.retired)+len(o.clients))
	assigns = append(assigns, o.retired...)
	for _, cs := range o.clients {
		assigns = append(assigns, cs.assign)
	}
	return assigns
}

func mat(r, c int) [][]float64 {
	out := make([][]float64, r)
	for i := range out {
		out[i] = make([]float64, c)
	}
	return out
}

func matB(r, c int) [][]bool {
	out := make([][]bool, r)
	for i := range out {
		out[i] = make([]bool, c)
	}
	return out
}
