package lease

import (
	"math/rand"
	"testing"
)

func TestLiveRunKeepsAndRetires(t *testing.T) {
	cfg := MustConfig(Type{Length: 1, Cost: 1}, Type{Length: 4, Cost: 3})
	w := NewLive[int](cfg, 2)

	run := w.Run(1, 1, 4, 12) // starts 4, 8, 12
	if len(run) != 3 || run[0] != 0 || run[2] != 0 {
		t.Fatalf("fresh run = %v, want three zeros", run)
	}
	run[0], run[1], run[2] = 4, 8, 12
	if got := w.Run(1, 1, 4, 8); len(got) != 2 || got[0] != 4 || got[1] != 8 {
		t.Fatalf("re-read [4, 8] = %v, want [4 8]", got)
	}
	// Reading from 8 retires 4 and keeps 8 and 12; 16 is new.
	if got := w.Run(1, 1, 8, 16); len(got) != 3 || got[0] != 8 || got[1] != 12 || got[2] != 0 {
		t.Fatalf("run [8, 16] = %v, want [8 12 0]", got)
	}
	// Past every kept start: all retired, the new start reads zero.
	if got := w.At(1, 1, 40); *got != 0 {
		t.Fatalf("At(40) = %d, want 0", *got)
	}
	// Other slots are independent of slot (1, 1).
	*w.At(0, 1, 8) = 7
	*w.At(1, 0, 8) = 9
	if *w.At(0, 1, 8) != 7 || *w.At(1, 0, 8) != 9 || *w.At(1, 1, 40) != 0 {
		t.Fatal("slots share state")
	}
}

func TestLiveReadingRetiredStartPanics(t *testing.T) {
	w := NewLive[float64](MustConfig(Type{Length: 2, Cost: 1}), 1)
	w.At(0, 0, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("reading start 4 after 6 did not panic")
		}
	}()
	w.At(0, 0, 4)
}

// TestLiveMatchesMap drives Live and a map keyed by lease with the same
// monotone reads of random windows and requires them to agree on every
// live lease.
func TestLiveMatchesMap(t *testing.T) {
	cfg := MustConfig(Type{Length: 1, Cost: 1}, Type{Length: 4, Cost: 3}, Type{Length: 16, Cost: 8})
	rng := rand.New(rand.NewSource(3))
	w := NewLive[int](cfg, 3)
	ref := map[[2]int64]int{} // (item*K+k, start) -> value
	tm := int64(-40)
	for step := 0; step < 5000; step++ {
		tm += int64(rng.Intn(3))
		d := int64(rng.Intn(40))
		item := rng.Intn(3)
		for k := range cfg.K() {
			from, to := cfg.AlignedStart(k, tm), cfg.AlignedStart(k, tm+d)
			run := w.Run(item, k, from, to)
			for i := range run {
				key := [2]int64{int64(item*cfg.K() + k), from + int64(i)*cfg.Length(k)}
				if run[i] != ref[key] {
					t.Fatalf("step %d: item %d type %d start %d = %d, want %d", step, item, k, key[1], run[i], ref[key])
				}
				run[i]++
				ref[key]++
			}
		}
	}
}

func TestStartsOutOfOrder(t *testing.T) {
	var ss Starts
	for _, s := range []int64{8, 16, 0, 24, 16, 4} {
		ss.Insert(s)
	}
	if want := (Starts{0, 4, 8, 16, 24}); len(ss) != len(want) {
		t.Fatalf("starts = %v, want %v", ss, want)
	}
	for i, s := range []int64{0, 4, 8, 16, 24} {
		if ss[i] != s || !ss.Has(s) {
			t.Fatalf("starts = %v, want sorted and holding %d", ss, s)
		}
	}
	if ss.Has(2) || ss.Has(30) || ss.Has(-4) || ss.Insert(8) {
		t.Fatal("starts report a start never inserted, or re-insert one")
	}
	if !ss.Covers(27, 4) || ss.Covers(28, 4) || !ss.Covers(3, 4) || ss.Covers(-1, 4) {
		t.Fatal("coverage of length-4 windows wrong")
	}
}
