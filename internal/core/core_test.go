package core

import (
	"testing"

	"leasing/internal/lease"
)

func testConfig() *lease.Config {
	return lease.MustConfig(
		lease.Type{Length: 2, Cost: 1},
		lease.Type{Length: 8, Cost: 3},
	)
}

func TestNewItemStoreValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := NewItemStore(cfg, [][]float64{{1}}); err == nil {
		t.Error("short cost row accepted")
	}
	if _, err := NewItemStore(cfg, [][]float64{{1, 0}}); err == nil {
		t.Error("zero cost accepted")
	}
	if _, err := NewItemStore(cfg, [][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Errorf("valid costs rejected: %v", err)
	}
}

func TestItemStoreBuyAndActive(t *testing.T) {
	cfg := testConfig()
	s, err := NewItemStore(cfg, [][]float64{{1, 3}, {2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	il := ItemLease{Item: 0, K: 1, Start: 8}
	fresh, err := s.Buy(il)
	if err != nil || !fresh {
		t.Fatalf("Buy = %v, %v; want true, nil", fresh, err)
	}
	fresh, err = s.Buy(il)
	if err != nil || fresh {
		t.Fatalf("duplicate Buy = %v, %v; want false, nil", fresh, err)
	}
	if got := s.TotalCost(); got != 3 {
		t.Errorf("TotalCost = %v, want 3 (no double charge)", got)
	}
	if !s.Has(il) {
		t.Error("Has(bought) = false")
	}
	if !s.ItemActive(0, 8) || !s.ItemActive(0, 15) || s.ItemActive(0, 16) || s.ItemActive(0, 7) {
		t.Error("ItemActive window [8,16) wrong")
	}
	if s.ItemActive(1, 10) {
		t.Error("unbought item active")
	}
	if _, err := s.Buy(ItemLease{Item: 5, K: 0, Start: 0}); err == nil {
		t.Error("out-of-range item accepted")
	}
	if _, err := s.Buy(ItemLease{Item: 0, K: 9, Start: 0}); err == nil {
		t.Error("out-of-range type accepted")
	}
}

func TestActiveItemsSortedAndLeases(t *testing.T) {
	cfg := testConfig()
	s, _ := NewItemStore(cfg, [][]float64{{1, 3}, {2, 5}, {1, 4}})
	for _, il := range []ItemLease{
		{Item: 2, K: 0, Start: 4},
		{Item: 0, K: 1, Start: 0},
		{Item: 2, K: 0, Start: 0},
	} {
		if _, err := s.Buy(il); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ActiveItems(5)
	want := []int{0, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ActiveItems(5) = %v, want %v", got, want)
	}
	ls := s.Leases()
	if len(ls) != 3 {
		t.Fatalf("Leases() len = %d, want 3", len(ls))
	}
	if ls[0] != (ItemLease{Item: 0, K: 1, Start: 0}) ||
		ls[1] != (ItemLease{Item: 2, K: 0, Start: 0}) ||
		ls[2] != (ItemLease{Item: 2, K: 0, Start: 4}) {
		t.Errorf("Leases() = %v not sorted as expected", ls)
	}
	if s.NumItems() != 3 {
		t.Errorf("NumItems = %d, want 3", s.NumItems())
	}
	if s.Cost(1, 1) != 5 {
		t.Errorf("Cost(1,1) = %v, want 5", s.Cost(1, 1))
	}
}

func TestItemLeaseLease(t *testing.T) {
	il := ItemLease{Item: 3, K: 1, Start: 16}
	l := il.Lease()
	if l.K != 1 || l.Start != 16 {
		t.Errorf("Lease() = %+v", l)
	}
}

func TestRatio(t *testing.T) {
	r, err := Ratio(6, 2)
	if err != nil || r != 3 {
		t.Errorf("Ratio(6,2) = %v, %v; want 3, nil", r, err)
	}
	if _, err := Ratio(1, 0); err == nil {
		t.Error("Ratio with zero opt accepted")
	}
}
