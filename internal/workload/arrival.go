package workload

// Pluggable arrival processes for the load harness. Where the
// generators in workload.go are one-shot helpers bound to a fixed
// Bernoulli rate, an Arrival is a named, stateful process
// cmd/leaseload plugs in per tenant, in one-step and stepped SLA runs
// alike: constant, diurnal sinusoid, or bursty on/off — plus
// Zipf-skewed tenant sizing. All
// randomness flows through the caller's *rand.Rand in a fixed per-step
// order, so equal seeds yield byte-identical event streams (the
// property the arrival tests pin down).

import (
	"fmt"
	"math"
	"math/rand"
)

// Arrival decides, step by step, whether a demand arrives. Step must
// consume randomness from rng in a deterministic per-step order; an
// Arrival instance carries its own state (the bursty chain) and must
// not be shared across streams. MeanRate reports the process's expected
// arrivals per step over a horizon, the anchor of the rate-conservation
// tests.
type Arrival interface {
	// Name identifies the process in reports and flags.
	Name() string
	// Step reports whether a demand arrives at step t.
	Step(rng *rand.Rand, t int64) bool
	// MeanRate is the expected arrivals per step over [0, horizon).
	MeanRate(horizon int64) float64
}

// Constant is the fixed-rate Bernoulli process: every step carries a
// demand independently with probability P.
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

// Name implements Arrival.
func (c *Constant) Name() string { return "constant" }

// Step implements Arrival.
func (c *Constant) Step(rng *rand.Rand, t int64) bool { return rng.Float64() < c.P }

// MeanRate implements Arrival.
func (c *Constant) MeanRate(horizon int64) float64 { return c.P }

// Diurnal is the sinusoidal day/night process: the arrival probability
// oscillates around Mean with amplitude Swing and the given Period,
// clamped to [0, 1]. It models the daily traffic wave a serving system
// must ride without re-provisioning.
type Diurnal struct {
	Mean   float64
	Swing  float64
	Period int64
}

// NewDiurnal returns the sinusoidal arrival process; period must be
// positive and mean in [0, 1].
func NewDiurnal(mean, swing float64, period int64) (*Diurnal, error) {
	if mean < 0 || mean > 1 {
		return nil, fmt.Errorf("workload: diurnal arrival needs mean in [0,1], got %v", mean)
	}
	if swing < 0 {
		return nil, fmt.Errorf("workload: diurnal arrival needs swing >= 0, got %v", swing)
	}
	if period < 1 {
		return nil, fmt.Errorf("workload: diurnal arrival needs period >= 1, got %d", period)
	}
	return &Diurnal{Mean: mean, Swing: swing, Period: period}, nil
}

// Name implements Arrival.
func (d *Diurnal) Name() string { return "diurnal" }

// rate is the clamped instantaneous probability at step t.
func (d *Diurnal) rate(t int64) float64 {
	phase := 2 * math.Pi * float64(t%d.Period) / float64(d.Period)
	p := d.Mean + d.Swing*math.Sin(phase)
	return math.Min(1, math.Max(0, p))
}

// Step implements Arrival.
func (d *Diurnal) Step(rng *rand.Rand, t int64) bool { return rng.Float64() < d.rate(t) }

// MeanRate implements Arrival. Clamping makes the closed form wrong in
// general, so the mean is the exact average of the per-step rates.
func (d *Diurnal) MeanRate(horizon int64) float64 {
	if horizon < 1 {
		return 0
	}
	// The rate is periodic, so average one period (or the horizon if
	// shorter) — exact and O(period) instead of O(horizon).
	n := min(horizon, d.Period)
	var sum float64
	for t := int64(0); t < n; t++ {
		sum += d.rate(t)
	}
	if horizon <= d.Period {
		return sum / float64(n)
	}
	full := horizon / d.Period
	total := sum * float64(full)
	for t := full * d.Period; t < horizon; t++ {
		total += d.rate(t % d.Period)
	}
	return total / float64(horizon)
}

// Bursty is the two-state Markov-modulated on/off process: in the "on"
// state every step carries a demand, in "off" none does, and the chain
// stays in its state with probability StayOn / StayOff per step. Long
// on-runs reward long leases, long off-runs punish them — the tension
// the leasing model is about, now as a pluggable process.
type Bursty struct {
	StayOn  float64
	StayOff float64
	on      bool
	started bool
}

// NewBursty returns the on/off process; both stay probabilities must be
// in [0, 1).
func NewBursty(stayOn, stayOff float64) (*Bursty, error) {
	if stayOn < 0 || stayOn >= 1 || stayOff < 0 || stayOff >= 1 {
		return nil, fmt.Errorf("workload: bursty arrival needs stay probabilities in [0,1), got on=%v off=%v", stayOn, stayOff)
	}
	return &Bursty{StayOn: stayOn, StayOff: stayOff}, nil
}

// Name implements Arrival.
func (b *Bursty) Name() string { return "bursty" }

// Step implements Arrival. The first step draws the initial state from
// the chain's stationary distribution, so short streams are not biased
// toward either state.
func (b *Bursty) Step(rng *rand.Rand, t int64) bool {
	if !b.started {
		b.on = rng.Float64() < b.MeanRate(1)
		b.started = true
	}
	arrived := b.on
	stay := b.StayOff
	if b.on {
		stay = b.StayOn
	}
	if rng.Float64() >= stay {
		b.on = !b.on
	}
	return arrived
}

// MeanRate implements Arrival: the chain's stationary on-probability
// (1-StayOff) / ((1-StayOn) + (1-StayOff)), independent of horizon.
func (b *Bursty) MeanRate(int64) float64 {
	flipOn, flipOff := 1-b.StayOn, 1-b.StayOff
	return flipOff / (flipOn + flipOff)
}

// NewArrival builds a named arrival process with mean rate p: the
// pluggable seam of cmd/leaseload's -arrival flag. "constant" is
// Bernoulli(p); "diurnal" oscillates around p with amplitude 0.9*p over
// the given period; "bursty" is the on/off chain whose stay
// probabilities are tuned so its stationary rate is p with mean run
// length 10 steps.
func NewArrival(name string, p float64, period int64) (Arrival, error) {
	switch name {
	case "constant":
		return NewConstant(p)
	case "diurnal":
		return NewDiurnal(p, 0.9*p, period)
	case "bursty":
		if p <= 0 || p >= 1 {
			return nil, fmt.Errorf("workload: bursty arrival needs rate in (0,1), got %v", p)
		}
		// Mean on-run of 10 steps; off-run scaled to hit stationary p.
		const run = 10.0
		flipOn := 1 / run
		flipOff := flipOn * p / (1 - p)
		if flipOff >= 1 {
			flipOff = 0.999
		}
		return NewBursty(1-flipOn, 1-flipOff)
	default:
		return nil, fmt.Errorf("workload: unknown arrival process %q (want constant, diurnal or bursty)", name)
	}
}

// ArrivalDays materializes the process over [0, horizon) as sorted
// distinct demand days — the arrival-process counterpart of DemandDays.
func ArrivalDays(rng *rand.Rand, horizon int64, a Arrival) []int64 {
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
func DeadlineArrivals(rng *rand.Rand, horizon int64, a Arrival, dmax int64) []DeadlineClient {
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
func ElementArrivals(rng *rand.Rand, horizon int64, a Arrival, pick func() int, mult func() int) []ElementArrival {
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
func ConnectArrivals(rng *rand.Rand, horizon int64, a Arrival, n int) ([]ConnectRequest, error) {
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

// ZipfSizes splits total into n tenant sizes with a Zipf(s) rank-size
// law: tenant of rank r gets a share proportional to 1/(r+1)^s, so a
// few tenants are heavy and the tail is light — the skew real
// multi-tenant fleets show. s = 0 degenerates to an even split. Sizes
// are at least 1 each (total must be >= n) and sum exactly to total;
// the split is deterministic, callers shuffle ranks if they need to.
func ZipfSizes(n int, s float64, total int) ([]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: zipf sizes need n >= 1, got %d", n)
	}
	if s < 0 {
		return nil, fmt.Errorf("workload: zipf sizes need s >= 0, got %v", s)
	}
	if total < n {
		return nil, fmt.Errorf("workload: zipf sizes need total >= n, got total=%d n=%d", total, n)
	}
	weights := make([]float64, n)
	var norm float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -s)
		norm += weights[r]
	}
	out := make([]int, n)
	assigned := 0
	for r := range out {
		out[r] = max(1, int(float64(total)*weights[r]/norm))
		assigned += out[r]
	}
	// Largest-first correction so the sizes sum exactly to total while
	// keeping every tenant at >= 1 event.
	for i := 0; assigned != total; i = (i + 1) % n {
		if assigned < total {
			out[i]++
			assigned++
		} else if out[i] > 1 {
			out[i]--
			assigned--
		}
	}
	return out, nil
}
