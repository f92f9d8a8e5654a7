package lease

import "sort"

// Store is a set of purchased leases with cost accounting and coverage
// queries. It supports both interval-model and general (arbitrary-start)
// solutions; coverage and membership queries use a per-type sorted index
// of start times.
//
// The zero value is not usable; construct with NewStore.
type Store struct {
	cfg     *Config
	starts  []Starts // per type
	journal []Lease  // purchases in buy order, append-only
	total   float64
}

// NewStore returns an empty purchase store over the given configuration.
func NewStore(cfg *Config) *Store {
	return &Store{cfg: cfg, starts: make([]Starts, cfg.K())}
}

// Buy adds the lease to the store if not already present and accounts for
// its cost. It reports whether the lease was newly bought.
func (s *Store) Buy(l Lease) bool {
	if !s.starts[l.K].Insert(l.Start) {
		return false
	}
	s.journal = append(s.journal, l)
	s.total += s.cfg.Cost(l.K)
	return true
}

// Has reports whether the exact lease is in the store.
func (s *Store) Has(l Lease) bool {
	return l.K >= 0 && l.K < len(s.starts) && s.starts[l.K].Has(l.Start)
}

// Covers reports whether any bought lease covers time t.
func (s *Store) Covers(t int64) bool {
	for k := range s.starts {
		if s.CoversWithType(k, t) {
			return true
		}
	}
	return false
}

// CoversWithType reports whether a bought lease of type k covers time t.
func (s *Store) CoversWithType(k int, t int64) bool { return s.starts[k].Covers(t, s.cfg.Length(k)) }

// TotalCost returns the accumulated purchase cost.
func (s *Store) TotalCost() float64 { return s.total }

// Count returns the number of distinct leases bought.
func (s *Store) Count() int { return len(s.journal) }

// BoughtSince returns the leases bought after the first n, in buy
// order: the tail of the append-only purchase log a stream.Journal reads
// each decision from, once per purchase, without rebuilding or
// re-sorting the full set the way Leases does. The slice aliases the
// store's journal; callers must not mutate it.
func (s *Store) BoughtSince(n int) []Lease { return s.journal[n:] }

// Leases returns the bought leases in deterministic order (by type, then
// start time).
func (s *Store) Leases() []Lease {
	out := append([]Lease{}, s.journal...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].K != out[j].K {
			return out[i].K < out[j].K
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Config returns the configuration the store was built over.
func (s *Store) Config() *Config { return s.cfg }

// Starts is the sorted start times of one type's bought leases, the
// index behind a store's membership and coverage queries. Online buys
// append in time order, so each query checks the newest start first.
type Starts []int64

// Has reports whether start is in the list.
func (ss Starts) Has(start int64) bool {
	if n := len(ss); n > 0 && ss[n-1] <= start {
		return ss[n-1] == start
	}
	i := sort.Search(len(ss), func(i int) bool { return ss[i] >= start })
	return i < len(ss) && ss[i] == start
}

// Insert adds start unless present and reports whether it was added.
func (ss *Starts) Insert(start int64) bool {
	s := *ss
	n := len(s)
	if n == 0 || s[n-1] < start {
		*ss = append(s, start)
		return true
	}
	i := sort.Search(n, func(i int) bool { return s[i] >= start })
	if s[i] == start {
		return false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = start
	*ss = s
	return true
}

// Covers reports whether a lease of the given length starting at one of
// the starts covers time t: the last start at or before t reaches past t.
func (ss Starts) Covers(t, length int64) bool {
	n := len(ss)
	if n > 0 && ss[n-1] <= t {
		return ss[n-1]+length > t
	}
	i := sort.Search(n, func(i int) bool { return ss[i] > t })
	return i > 0 && ss[i-1]+length > t
}
