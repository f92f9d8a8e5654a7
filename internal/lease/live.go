package lease

// Live holds per-lease state of the leases a future demand can still
// name. In the interval model (Definition 2.5) a type-k lease starts at
// a multiple of l_k, and demands arrive in time order, so once time
// passes a lease's window it is never a candidate again. Live keeps one
// slot per (item, type), sized by the item count at construction and
// never by time: the run of consecutive aligned starts from the oldest
// one still live. Reading a later first start retires every earlier
// start of the slot, so an online algorithm's state stays bounded
// however long its history. The purchase log, which is the algorithm's
// output, is kept elsewhere.
//
// A retired lease's state is gone for good: the caller must never read
// a start earlier than one it has already read as a run's first start
// for the same slot. Online algorithms satisfy this by reading, for a
// demand at t, the runs beginning at AlignedStart(k, t).
type Live[V any] struct {
	cfg  *Config
	runs []liveRun[V] // item*K + type
}

type liveRun[V any] struct {
	first int64 // aligned start of vals[0]
	vals  []V
}

// NewLive returns fresh state for items × cfg.K() slots.
func NewLive[V any](cfg *Config, items int) *Live[V] {
	return &Live[V]{cfg: cfg, runs: make([]liveRun[V], items*cfg.K())}
}

// Run returns the state of item's type-k leases starting at from,
// from+l_k, …, to (both aligned, from <= to), retiring the slot's starts
// before from. A start read for the first time holds V's zero value.
// The slice aliases the slot: it stays valid until the slot is read
// again.
func (w *Live[V]) Run(item, k int, from, to int64) []V {
	r := &w.runs[item*w.cfg.K()+k]
	l := w.cfg.Length(k)
	switch {
	case len(r.vals) == 0 || from >= r.first+int64(len(r.vals))*l:
		r.vals, r.first = r.vals[:0], from
	case from > r.first:
		r.vals = r.vals[:copy(r.vals, r.vals[(from-r.first)/l:])]
		r.first = from
	case from < r.first:
		panic("lease: Live read a retired start")
	}
	n := int((to-from)/l) + 1
	var zero V
	for len(r.vals) < n {
		r.vals = append(r.vals, zero)
	}
	return r.vals[:n]
}

// At returns the state of item's type-k lease starting at start, the
// one-start Run: it retires the slot's earlier starts.
func (w *Live[V]) At(item, k int, start int64) *V { return &w.Run(item, k, start, start)[0] }
