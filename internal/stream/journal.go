package stream

import "leasing/internal/lease"

// Journal serves a Leaser from its algorithm's append-only purchase log.
// An online leasing algorithm only ever adds triples and never refunds
// one (Section 2.3), so the log is the whole solution: a Decision is the
// log's tail since the previous event, and a Snapshot is the whole log.
// T is the log's entry type.
type Journal[T any] struct {
	since  func(n int) []T   // the log's entries after the first n
	triple func(T) ItemLease // one entry as its (i, k, t) triple
	n      int               // entries already reported
	total  float64           // total cost at the previous Decision
}

// NewJournal returns a Journal reading the log through since, which may
// alias the log: the Journal never mutates or keeps what it returns.
func NewJournal[T any](since func(n int) []T, triple func(T) ItemLease) *Journal[T] {
	return &Journal[T]{since: since, triple: triple}
}

// Decision returns the Decision for the event just applied: the entries
// appended since the previous call as sorted triples (nil when there are
// none), and the growth of total since then. A purchase whose cost the
// float total absorbs is still reported.
func (j *Journal[T]) Decision(total float64) Decision {
	d := Decision{Cost: total - j.total}
	if news := j.since(j.n); len(news) > 0 {
		j.n += len(news)
		d.Leases = j.sorted(news)
	}
	j.total = total
	return d
}

// Leases returns the whole log as sorted triples, the Snapshot's lease
// list. The slice is fresh and never nil: the engine hands it to a
// reader on another goroutine while the log keeps growing.
func (j *Journal[T]) Leases() []ItemLease { return j.sorted(j.since(0)) }

func (j *Journal[T]) sorted(entries []T) []ItemLease {
	out := make([]ItemLease, len(entries))
	for i, x := range entries {
		out[i] = j.triple(x)
	}
	SortItemLeases(out)
	return out
}

// Identity is the triple of a log that already holds triples.
func Identity(il ItemLease) ItemLease { return il }

// SingleResource is the triple of a single-resource lease (parking
// permits, leasing with deadlines), whose one item is 0.
func SingleResource(l lease.Lease) ItemLease { return ItemLease{K: l.K, Start: l.Start} }
