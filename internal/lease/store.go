package lease

import "sort"

// Store is a set of purchased leases with cost accounting and coverage
// queries. It supports both interval-model and general (arbitrary-start)
// solutions; coverage queries use a per-type sorted index of start times.
//
// The zero value is not usable; construct with NewStore.
type Store struct {
	cfg     *Config
	bought  map[Lease]struct{}
	starts  [][]int64 // per type, sorted start times
	journal []Lease   // purchases in buy order, append-only
	total   float64
}

// NewStore returns an empty purchase store over the given configuration.
func NewStore(cfg *Config) *Store {
	return &Store{
		cfg:    cfg,
		bought: make(map[Lease]struct{}),
		starts: make([][]int64, cfg.K()),
	}
}

// Buy adds the lease to the store if not already present and accounts for
// its cost. It reports whether the lease was newly bought.
func (s *Store) Buy(l Lease) bool {
	if _, ok := s.bought[l]; ok {
		return false
	}
	s.bought[l] = struct{}{}
	s.journal = append(s.journal, l)
	s.total += s.cfg.Cost(l.K)
	ss := s.starts[l.K]
	i := sort.Search(len(ss), func(i int) bool { return ss[i] >= l.Start })
	ss = append(ss, 0)
	copy(ss[i+1:], ss[i:])
	ss[i] = l.Start
	s.starts[l.K] = ss
	return true
}

// Has reports whether the exact lease is in the store.
func (s *Store) Has(l Lease) bool {
	_, ok := s.bought[l]
	return ok
}

// Covers reports whether any bought lease covers time t.
func (s *Store) Covers(t int64) bool {
	for k := range s.starts {
		if s.coversWithType(k, t) {
			return true
		}
	}
	return false
}

// CoversWithType reports whether a bought lease of type k covers time t.
func (s *Store) CoversWithType(k int, t int64) bool { return s.coversWithType(k, t) }

func (s *Store) coversWithType(k int, t int64) bool {
	ss := s.starts[k]
	// Find the last start <= t and check its window reaches past t.
	i := sort.Search(len(ss), func(i int) bool { return ss[i] > t })
	if i == 0 {
		return false
	}
	return ss[i-1]+s.cfg.Length(k) > t
}

// TotalCost returns the accumulated purchase cost.
func (s *Store) TotalCost() float64 { return s.total }

// Count returns the number of distinct leases bought.
func (s *Store) Count() int { return len(s.bought) }

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
