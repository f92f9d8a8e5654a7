// Package setcover implements Chapter 3 of the thesis: SetMulticoverLeasing
// and its special cases. Elements arrive over time, each demanding coverage
// by p distinct sets leased at its arrival time; sets are leased with one of
// K lease types at per-set, per-type costs c_Sk.
//
// The package provides the randomized online algorithm of Section 3.3
// (layered fractional increments with randomized rounding, Algorithms 3+4),
// the reductions to OnlineSetMulticover (K=1, l_1=∞; Corollary 3.4) and
// OnlineSetCoverWithRepetitions (Corollary 3.5), an offline greedy
// baseline, and an exact ILP optimum for small instances.
package setcover

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"leasing/internal/lease"
	"leasing/internal/workload"
)

// Family is a set system over the universe {0, ..., n-1}.
type Family struct {
	n          int
	sets       [][]int
	containing [][]int
	delta      int
	maxSize    int
}

// NewFamily validates the set system and builds the element->sets index.
// Every element of every set must be in [0, n); sets may not be empty.
func NewFamily(n int, sets [][]int) (*Family, error) {
	if n < 1 {
		return nil, fmt.Errorf("setcover: universe size %d < 1", n)
	}
	if len(sets) == 0 {
		return nil, errors.New("setcover: family needs at least one set")
	}
	f := &Family{
		n:          n,
		sets:       make([][]int, len(sets)),
		containing: make([][]int, n),
	}
	for si, s := range sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("setcover: set %d is empty", si)
		}
		cp := make([]int, len(s))
		copy(cp, s)
		sort.Ints(cp)
		for i, e := range cp {
			if e < 0 || e >= n {
				return nil, fmt.Errorf("setcover: set %d contains element %d outside [0,%d)", si, e, n)
			}
			if i > 0 && cp[i-1] == e {
				return nil, fmt.Errorf("setcover: set %d contains element %d twice", si, e)
			}
			f.containing[e] = append(f.containing[e], si)
		}
		f.sets[si] = cp
		if len(cp) > f.maxSize {
			f.maxSize = len(cp)
		}
	}
	for _, c := range f.containing {
		if len(c) > f.delta {
			f.delta = len(c)
		}
	}
	return f, nil
}

// N returns the universe size.
func (f *Family) N() int { return f.n }

// M returns the number of sets.
func (f *Family) M() int { return len(f.sets) }

// Set returns the (sorted) elements of set s.
func (f *Family) Set(s int) []int { return f.sets[s] }

// Containing returns the indices of the sets containing element e.
func (f *Family) Containing(e int) []int { return f.containing[e] }

// Delta returns δ, the maximum number of sets any element belongs to.
func (f *Family) Delta() int { return f.delta }

// MaxSetSize returns Δ, the maximum set cardinality.
func (f *Family) MaxSetSize() int { return f.maxSize }

// ExclusionScope controls which previously used sets are off-limits when
// covering a new demand layer.
type ExclusionScope int

// Exclusion scopes.
const (
	// PerArrival is SetMulticoverLeasing: the p sets covering one arrival
	// must be distinct, but later arrivals of the same element start fresh.
	PerArrival ExclusionScope = iota + 1
	// PerElement is OnlineSetCoverWithRepetitions: every arrival of an
	// element must be covered by a set not used for any of its earlier
	// arrivals.
	PerElement
)

func (s ExclusionScope) String() string {
	switch s {
	case PerArrival:
		return "per-arrival"
	case PerElement:
		return "per-element"
	default:
		return fmt.Sprintf("ExclusionScope(%d)", int(s))
	}
}

// Instance bundles a set system, lease configuration, leasing costs and a
// demand stream.
type Instance struct {
	Fam   *Family
	Cfg   *lease.Config
	Costs [][]float64 // Costs[s][k] = c_Sk
	// Arrivals is the demand stream, sorted by time.
	Arrivals []workload.ElementArrival
	// Scope selects the multicover semantics (default PerArrival).
	Scope ExclusionScope
}

// NewInstance validates dimensions, stream order and feasibility (each
// arrival's multiplicity cannot exceed the number of sets containing the
// element; in PerElement scope the total number of arrivals per element is
// similarly bounded).
func NewInstance(fam *Family, cfg *lease.Config, costs [][]float64, arrivals []workload.ElementArrival, scope ExclusionScope) (*Instance, error) {
	if scope == 0 {
		scope = PerArrival
	}
	if scope != PerArrival && scope != PerElement {
		return nil, fmt.Errorf("setcover: unknown scope %v", scope)
	}
	if len(costs) != fam.M() {
		return nil, fmt.Errorf("setcover: %d cost rows for %d sets", len(costs), fam.M())
	}
	for s, row := range costs {
		if len(row) != cfg.K() {
			return nil, fmt.Errorf("setcover: cost row %d has %d entries, want %d", s, len(row), cfg.K())
		}
		for k, c := range row {
			if !(c > 0) {
				return nil, fmt.Errorf("setcover: cost[%d][%d] = %v, want > 0", s, k, c)
			}
		}
	}
	used := make(map[int]int) // element -> cumulative demand (PerElement)
	var lastT int64
	for i, a := range arrivals {
		if i > 0 && a.T < lastT {
			return nil, fmt.Errorf("setcover: arrival %d out of order", i)
		}
		lastT = a.T
		if a.Elem < 0 || a.Elem >= fam.N() {
			return nil, fmt.Errorf("setcover: arrival %d element %d outside universe", i, a.Elem)
		}
		if a.P < 1 {
			return nil, fmt.Errorf("setcover: arrival %d multiplicity %d < 1", i, a.P)
		}
		avail := len(fam.Containing(a.Elem))
		switch scope {
		case PerArrival:
			if a.P > avail {
				return nil, fmt.Errorf("setcover: arrival %d demands %d sets but element %d is in only %d", i, a.P, a.Elem, avail)
			}
		case PerElement:
			used[a.Elem] += a.P
			if used[a.Elem] > avail {
				return nil, fmt.Errorf("setcover: element %d accumulates demand %d but is in only %d sets", a.Elem, used[a.Elem], avail)
			}
		}
	}
	return &Instance{Fam: fam, Cfg: cfg, Costs: costs, Arrivals: arrivals, Scope: scope}, nil
}

// Candidates appends to dst the candidate triples of a demand (element e
// at time t): for every set containing e and every lease type, the
// aligned lease covering t. Sets listed in exclude are skipped.
func (in *Instance) Candidates(dst []SetLease, e int, t int64, exclude []int) []SetLease {
	for _, s := range in.Fam.Containing(e) {
		if slices.Contains(exclude, s) {
			continue
		}
		for k := 0; k < in.Cfg.K(); k++ {
			dst = append(dst, SetLease{Set: s, K: k, Start: in.Cfg.AlignedStart(k, t)})
		}
	}
	return dst
}

// SetLease is the triple (S, k, t): set Set leased with type K from Start.
type SetLease struct {
	Set   int
	K     int
	Start int64
}

// Covers reports whether the triple's window covers time t under cfg.
func (sl SetLease) Covers(cfg *lease.Config, t int64) bool {
	return sl.Start <= t && t < sl.Start+cfg.Length(sl.K)
}

// SortSetLeases orders triples by (set, type, start), the canonical
// order for solution output, so slices collected from the bought set
// are identical across runs.
func SortSetLeases(ls []SetLease) {
	sort.Slice(ls, func(i, j int) bool {
		a, b := ls[i], ls[j]
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		if a.K != b.K {
			return a.K < b.K
		}
		return a.Start < b.Start
	})
}
