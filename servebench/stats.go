package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tail is a percentile as the benchmark reports it: the value, the
// percentile it was actually taken at and the sample count.
type tail struct {
	value float64
	q     float64 // the quantile used, in (0, 1]
	n     int
}

// percentile returns the nearest-rank value at quantile q of xs, unless
// fewer than minBeyond samples lie above that rank; then it returns the
// highest quantile that still leaves minBeyond above it. With too few
// samples for any such quantile it returns the maximum, and q reads 1.
func percentile(xs []float64, q float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n-minBeyond)
	if rank < 1 {
		return tail{value: s[n-1], q: 1, n: n}
	}
	return tail{value: s[rank-1], q: float64(rank) / float64(n), n: n}
}

// label names the percentile a tail was taken at, e.g. "p99 of n=2048",
// and says so when the requested one had too few samples beyond it.
func (t tail) label(want float64) string {
	if t.n == 0 {
		return "no samples"
	}
	got := fmt.Sprintf("p%g of n=%d", math.Round(t.q*10000)/100, t.n)
	if t.q < want-1e-9 || t.q == 1 {
		return fmt.Sprintf("%s; too few samples for p%g", got, want*100)
	}
	return fmt.Sprintf("p%g of n=%d", want*100, t.n)
}

// median is the midpoint of xs (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
