package workload

// The arrival process of the load harnesses: cmd/leaseload and
// servebench gate every tenant's stream with a fixed-rate Bernoulli
// process. All randomness flows through the caller's *rand.Rand in a
// fixed per-step order, so equal seeds yield byte-identical event
// streams (the property the arrival tests pin down).

import (
	"fmt"
	"math/rand"
)

// Constant is the fixed-rate Bernoulli arrival process: every step
// carries a demand independently with probability P, and Step draws the
// rng exactly once per step.
type Constant struct {
	P float64
}

// NewConstant returns the Bernoulli(p) arrival process.
func NewConstant(p float64) (*Constant, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("workload: constant arrival needs p in [0,1], got %v", p)
	}
	return &Constant{P: p}, nil
}

// Step reports whether a demand arrives at step t.
func (c *Constant) Step(rng *rand.Rand, t int64) bool { return rng.Float64() < c.P }

// ArrivalDays materializes the process over [0, horizon) as sorted
// distinct demand days — the arrival-process counterpart of DemandDays.
func ArrivalDays(rng *rand.Rand, horizon int64, a *Constant) []int64 {
	var out []int64
	for t := int64(0); t < horizon; t++ {
		if a.Step(rng, t) {
			out = append(out, t)
		}
	}
	return out
}

// DeadlineArrivals is DeadlineStream with the step gate replaced by an
// arrival process: on each demand step a client arrives with i.i.d.
// slack uniform in [0, dmax]. With Constant{p} it consumes the rng
// exactly like DeadlineStream(rng, horizon, p, dmax).
func DeadlineArrivals(rng *rand.Rand, horizon int64, a *Constant, dmax int64) []DeadlineClient {
	var out []DeadlineClient
	for t := int64(0); t < horizon; t++ {
		if a.Step(rng, t) {
			d := int64(0)
			if dmax > 0 {
				d = rng.Int63n(dmax + 1)
			}
			out = append(out, DeadlineClient{T: t, D: d})
		}
	}
	return out
}

// ElementArrivals is ElementStream driven by an arrival process: each
// demand step delivers an element chosen by pick() with multiplicity
// drawn by mult().
func ElementArrivals(rng *rand.Rand, horizon int64, a *Constant, pick func() int, mult func() int) []ElementArrival {
	var out []ElementArrival
	for t := int64(0); t < horizon; t++ {
		if a.Step(rng, t) {
			out = append(out, ElementArrival{T: t, Elem: pick(), P: mult()})
		}
	}
	return out
}

// ConnectArrivals is ConnectStream driven by an arrival process: each
// demand step requests connectivity between two distinct terminals
// uniform in [0, n). n must be at least 2.
func ConnectArrivals(rng *rand.Rand, horizon int64, a *Constant, n int) ([]ConnectRequest, error) {
	if n < 2 {
		return nil, fmt.Errorf("workload: connect stream needs n >= 2 terminals, got %d", n)
	}
	var out []ConnectRequest
	for t := int64(0); t < horizon; t++ {
		if a.Step(rng, t) {
			s := rng.Intn(n)
			u := rng.Intn(n - 1)
			if u >= s {
				u++
			}
			out = append(out, ConnectRequest{T: t, S: s, U: u})
		}
	}
	return out, nil
}
