package stream

import (
	"reflect"
	"testing"
)

// TestJournalDecisionsAndLeases drives a Journal over a hand-fed log: each
// Decision is exactly the tail appended since the previous one, sorted,
// every entry is read once, and Leases is a fresh sorted copy of the
// whole log.
func TestJournalDecisionsAndLeases(t *testing.T) {
	var log []ItemLease
	read := 0
	j := NewJournal(func(n int) []ItemLease {
		read += len(log) - n
		return log[n:]
	}, Identity)

	if got := j.Leases(); got == nil || len(got) != 0 {
		t.Fatalf("empty journal leases = %#v, want empty and non-nil", got)
	}
	if d := j.Decision(0); d.Leases != nil || d.Cost != 0 {
		t.Fatalf("no purchase: decision %+v, want empty", d)
	}

	log = append(log, ItemLease{Item: 2, K: 1, Start: 4}, ItemLease{Item: 0, K: 0, Start: 4})
	d := j.Decision(1e6)
	if want := []ItemLease{{Item: 0, K: 0, Start: 4}, {Item: 2, K: 1, Start: 4}}; !reflect.DeepEqual(d.Leases, want) || d.Cost != 1e6 {
		t.Fatalf("decision %+v, want leases %v at cost 1e6", d, want)
	}

	// A purchase the float total absorbs (1e6 + 1e-11 == 1e6) still
	// surfaces in its Decision, at zero cost.
	log = append(log, ItemLease{Item: 1, K: 0, Start: 5})
	if d := j.Decision(1e6 + 1e-11); !reflect.DeepEqual(d.Leases, []ItemLease{{Item: 1, K: 0, Start: 5}}) || d.Cost != 0 {
		t.Fatalf("absorbed purchase: decision %+v", d)
	}
	if d := j.Decision(1e6); d.Leases != nil {
		t.Fatalf("no new purchase: decision leases %v", d.Leases)
	}
	if read != len(log) {
		t.Fatalf("decisions read %d log entries, want each of %d once", read, len(log))
	}

	got := j.Leases()
	want := []ItemLease{{Item: 0, K: 0, Start: 4}, {Item: 1, K: 0, Start: 5}, {Item: 2, K: 1, Start: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("leases %v, want %v", got, want)
	}
	got[0].Item = 9
	if log[1].Item != 0 {
		t.Fatal("Leases aliases the log")
	}
}
