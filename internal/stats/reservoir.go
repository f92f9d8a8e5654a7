package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Reservoir is a bounded uniform sample of a latency stream (Vitter's
// algorithm R): it keeps an unbiased sample of fixed capacity no matter
// how many observations flow through, so a long load run can track
// percentiles without the measurement path itself growing an unbounded
// slice and distorting memory and GC. Exact count, min and max are
// tracked alongside the sample. Add is safe for concurrent use; a
// seeded source keeps a run's sample reproducible.
type Reservoir struct {
	mu     sync.Mutex
	rng    *rand.Rand
	sample []float64
	cap    int
	n      int64
	min    float64
	max    float64
}

// NewReservoir returns a reservoir keeping at most capacity samples,
// replacing uniformly with randomness from seed. Capacity must be >= 1;
// a few thousand samples hold percentile error under a percent.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{
		rng:    rand.New(rand.NewSource(seed)),
		sample: make([]float64, 0, capacity),
		cap:    capacity,
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Add observes one value.
func (r *Reservoir) Add(x float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	if x < r.min {
		r.min = x
	}
	if x > r.max {
		r.max = x
	}
	if len(r.sample) < r.cap {
		r.sample = append(r.sample, x)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(r.cap) {
		r.sample[j] = x
	}
}

// N reports how many values were observed (not how many are retained).
func (r *Reservoir) N() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Max reports the exact maximum observed, 0 when empty.
func (r *Reservoir) Max() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Min reports the exact minimum observed, 0 when empty.
func (r *Reservoir) Min() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Quantiles interpolates the given quantiles from one sorted copy of
// the retained sample (0 when empty). The exact observed maximum is
// substituted for q = 1, so the tail is never under-reported by
// sampling.
func (r *Reservoir) Quantiles(qs ...float64) []float64 {
	r.mu.Lock()
	sorted := append([]float64(nil), r.sample...)
	maxSeen, n := r.max, r.n
	r.mu.Unlock()
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		switch {
		case n == 0:
			out[i] = 0
		case q >= 1:
			out[i] = maxSeen
		default:
			pos := q * float64(len(sorted)-1)
			lo := int(math.Floor(pos))
			hi := int(math.Ceil(pos))
			if lo == hi {
				out[i] = sorted[lo]
			} else {
				frac := pos - float64(lo)
				out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
			}
		}
	}
	return out
}
