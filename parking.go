package leasing

import (
	"math/rand"

	"leasing/internal/parking"
)

// ParkingPermitAlgorithm is an online algorithm for the parking permit
// problem: demands are days that must be covered by a lease. Besides
// Leases, an implementation exposes its append-only purchase log through
// BoughtSince(n), the leases bought after the first n in buy order,
// which NewParkingStream reads its decisions from.
type ParkingPermitAlgorithm = parking.Algorithm

// NewDeterministicParkingPermit returns the deterministic primal-dual
// algorithm of thesis Algorithm 1, K-competitive in the interval model
// (Theorem 2.7). The configuration must be in the interval model.
func NewDeterministicParkingPermit(cfg *LeaseConfig) (ParkingPermitAlgorithm, error) {
	return parking.NewDeterministic(cfg)
}

// NewRandomizedParkingPermit returns Meyerson's randomized algorithm
// (thesis Algorithm 2), O(log K)-competitive in expectation. rng drives the
// single threshold draw.
func NewRandomizedParkingPermit(cfg *LeaseConfig, rng *rand.Rand) (ParkingPermitAlgorithm, error) {
	return parking.NewRandomized(cfg, rng)
}

// ParkingPermitOptimal returns the exact offline optimum for covering the
// demand days in the interval model, with an optimal lease set.
func ParkingPermitOptimal(cfg *LeaseConfig, days []int64) (float64, []Lease, error) {
	return parking.Optimal(cfg, days)
}

// RunParkingPermit feeds sorted demand days through an algorithm and
// returns the final cost.
func RunParkingPermit(alg ParkingPermitAlgorithm, days []int64) (float64, error) {
	return parking.Run(alg, days)
}

// NewPredictiveParkingPermit returns the stochastic-demand policy of the
// Chapter 5 outlook: it believes demands are i.i.d. Bernoulli(p) and buys
// the lease with the lowest cost per expected served demand. Accurate
// priors beat the worst-case algorithms on distributional streams; wrong
// priors lose the competitive guarantee (experiment E20).
func NewPredictiveParkingPermit(cfg *LeaseConfig, p float64) (ParkingPermitAlgorithm, error) {
	return parking.NewPredictive(cfg, p)
}

// ParkingPermitAdversary drives the Theorem 2.8 adaptive adversary against
// alg for up to maxDays steps and returns the demanded days. Combine with
// lease.MeyersonLowerBoundConfig-style pricing to observe the Ω(K) lower
// bound.
func ParkingPermitAdversary(cfg *LeaseConfig, alg ParkingPermitAlgorithm, maxDays int64) ([]int64, error) {
	return parking.RunAdversary(cfg, alg, maxDays)
}
