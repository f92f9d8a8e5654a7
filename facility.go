package leasing

import (
	"leasing/internal/facility"
	"leasing/internal/metric"
)

// Point is a location in the plane (the metric space of facility leasing).
type Point = metric.Point

// FacilityInstance is a facility-leasing input: sites with per-type lease
// costs and a timeline of client batches.
type FacilityInstance = facility.Instance

// FacilityLease is the triple (facility, lease type, start).
type FacilityLease = facility.FacilityLease

// FacilityAssignment records where one client was connected.
type FacilityAssignment = facility.Assignment

// FacilityLeaser is the two-phase primal-dual online algorithm of thesis
// Chapter 4.
type FacilityLeaser = facility.Online

// NewFacilityInstance validates a facility-leasing input. facCosts[i][k] is
// the price of leasing site i with type k; batches[t] lists the clients
// arriving at step t.
func NewFacilityInstance(cfg *LeaseConfig, sites []Point, facCosts [][]float64, batches [][]Point) (*FacilityInstance, error) {
	return facility.NewInstance(cfg, sites, facCosts, batches)
}

// NewFacilityLeaser returns the (3+K)·H_lmax-competitive dual-fitting
// algorithm (thesis Section 4.3, Theorem 4.5). Clients bid over the
// current l_max round only: the bids reset at each multiple of l_max,
// which aligned leases never cross, so the guarantee holds round by
// round and a step's cost does not grow with history.
func NewFacilityLeaser(inst *FacilityInstance) (*FacilityLeaser, error) {
	return facility.NewOnline(inst, facility.Options{})
}

// FacilityOptimal computes the exact offline optimum (lease plus
// connection cost) by branch and bound; exact reports whether it was
// proven within the node limit (<= 0 for the default).
func FacilityOptimal(inst *FacilityInstance, nodeLimit int) (cost float64, exact bool, err error) {
	res, err := facility.Optimal(inst, nodeLimit)
	if err != nil {
		return 0, false, err
	}
	return res.Cost, res.Exact, nil
}

// VerifyFacility checks each client is assigned to a facility leased over
// its arrival step and returns the recomputed total cost.
func VerifyFacility(inst *FacilityInstance, leases []FacilityLease, assigns []FacilityAssignment) (float64, error) {
	return facility.VerifySolution(inst, leases, assigns)
}

// Capacitated facility leasing (the Chapter 4 outlook): a facility serves
// at most `capacity` clients per time step.

// FacilityTypePolicy selects the lease type the capacitated greedy buys.
type FacilityTypePolicy = facility.TypePolicy

// Capacitated greedy lease-type policies.
const (
	// ShortestType rents the shortest lease on every opening.
	ShortestType = facility.ShortestType
	// BestRateType commits to the lease with the lowest per-step price.
	BestRateType = facility.BestRateType
)

// CapacitatedFacilityGreedy serves clients online under a per-step
// facility capacity, returning the cost and the solution.
func CapacitatedFacilityGreedy(inst *FacilityInstance, capacity int, policy FacilityTypePolicy) (float64, []FacilityLease, []FacilityAssignment, error) {
	return facility.CapacitatedGreedy(inst, capacity, policy)
}

// FacilityOptimalCapacitated computes the exact capacitated offline
// optimum.
func FacilityOptimalCapacitated(inst *FacilityInstance, capacity, nodeLimit int) (cost float64, exact bool, err error) {
	res, err := facility.OptimalCapacitated(inst, capacity, nodeLimit)
	if err != nil {
		return 0, false, err
	}
	return res.Cost, res.Exact, nil
}

// VerifyFacilityCapacitated verifies a capacitated solution (assignment
// coverage plus per-step facility capacities) and returns its cost.
func VerifyFacilityCapacitated(inst *FacilityInstance, leases []FacilityLease, assigns []FacilityAssignment, capacity int) (float64, error) {
	return facility.VerifyCapacitated(inst, leases, assigns, capacity)
}
