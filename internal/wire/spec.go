package wire

// Open-session specs: a remote tenant describes its problem instance in
// JSON — lease configuration, domain, and the domain's instance data —
// and Build constructs the same Leaser an in-process caller would get
// from the root facade's NewXxxStream constructors. Construction is
// deterministic given the spec (randomized algorithms draw from a
// generator seeded with Seed), which is what makes a remote session's
// output reproducible against a local Replay. The algorithms are
// online: a served session learns its demands only from submitted
// events, so a spec's demand stream is optional and WithoutStream drops
// it before the spec is sent or logged.

import (
	"fmt"
	"math/rand"

	"leasing/internal/deadline"
	"leasing/internal/facility"
	"leasing/internal/graph"
	"leasing/internal/lease"
	"leasing/internal/metric"
	"leasing/internal/parking"
	"leasing/internal/reusable"
	"leasing/internal/setcover"
	"leasing/internal/steiner"
	"leasing/internal/stream"
	"leasing/internal/workload"
)

// Domains of OpenRequest.Domain, one per online algorithm family.
const (
	// DomainParking is the deterministic parking-permit algorithm
	// consuming day events.
	DomainParking = "parking"
	// DomainParkingRand is the randomized parking-permit algorithm
	// (seeded by Seed) consuming day events.
	DomainParkingRand = "parking-rand"
	// DomainDeadline is the leasing-with-deadlines primal-dual algorithm
	// consuming window events.
	DomainDeadline = "deadline"
	// DomainSetCover is the randomized set-multicover algorithm (seeded
	// by Seed) consuming element events; requires the SetCover spec.
	DomainSetCover = "setcover"
	// DomainSCLD is the randomized set-cover-leasing-with-deadlines
	// algorithm (seeded by Seed) consuming element_window events;
	// requires the SCLD spec.
	DomainSCLD = "scld"
	// DomainFacility is the facility-leasing primal-dual algorithm
	// consuming batch events; requires the Facility spec.
	DomainFacility = "facility"
	// DomainSteiner is the Steiner-tree-leasing algorithm consuming
	// connect events; requires the Steiner spec.
	DomainSteiner = "steiner"
	// DomainReusable is the reusable-resource pool allocator consuming
	// use events; requires the Reusable spec.
	DomainReusable = "reusable"
)

// Domains lists every accepted OpenRequest.Domain value.
func Domains() []string {
	return []string{
		DomainParking, DomainParkingRand, DomainDeadline,
		DomainSetCover, DomainSCLD, DomainFacility, DomainSteiner,
		DomainReusable,
	}
}

// LeaseType is one lease type of a session's configuration.
type LeaseType struct {
	Length int64   `json:"length" doc:"duration in time steps (strictly increasing across types)"`
	Cost   float64 `json:"cost" doc:"price of one lease of this type (> 0)"`
}

// ElementArrival is one set-multicover demand of a SetCover spec.
type ElementArrival struct {
	T    int64 `json:"t" doc:"arrival step"`
	Elem int   `json:"elem" doc:"element index in [0, elements)"`
	P    int   `json:"p" doc:"cover multiplicity (distinct sets required)"`
}

// SCLDArrival is one demand of an SCLD spec.
type SCLDArrival struct {
	T    int64 `json:"t" doc:"arrival step"`
	Elem int   `json:"elem" doc:"element index in [0, elements)"`
	D    int64 `json:"d" doc:"deadline slack: coverable over [t, t+d]"`
}

// Edge is one weighted undirected edge of a Steiner spec.
type Edge struct {
	U int     `json:"u" doc:"first endpoint"`
	V int     `json:"v" doc:"second endpoint"`
	W float64 `json:"w" doc:"edge weight (per-type lease price is w * type cost)"`
}

// ConnectRequest is one connectivity demand of a Steiner spec.
type ConnectRequest struct {
	T int64 `json:"t" doc:"arrival step"`
	S int   `json:"s" doc:"first terminal"`
	U int   `json:"u" doc:"second terminal"`
}

// SetCoverSpec is the instance data of a setcover session.
type SetCoverSpec struct {
	Elements   int              `json:"elements" doc:"universe size n; elements are 0..n-1"`
	Sets       [][]int          `json:"sets" doc:"the set system: sets[s] lists the elements of set s"`
	Costs      [][]float64      `json:"costs" doc:"costs[s][k] is the price of leasing set s with type k"`
	Arrivals   []ElementArrival `json:"arrivals,omitempty" doc:"the demand stream, sorted by arrival step: validated when present, never read by a served session"`
	PerElement bool             `json:"per_element,omitempty" doc:"multicover scope: true means every repeat arrival of an element needs a fresh set"`
}

// SCLDSpec is the instance data of an scld session.
type SCLDSpec struct {
	Elements int           `json:"elements" doc:"universe size n; elements are 0..n-1"`
	Sets     [][]int       `json:"sets" doc:"the set system: sets[s] lists the elements of set s"`
	Costs    [][]float64   `json:"costs" doc:"costs[s][k] is the price of leasing set s with type k"`
	Arrivals []SCLDArrival `json:"arrivals,omitempty" doc:"the demand stream, sorted by arrival step: validated when present, never read by a served session"`
}

// FacilitySpec is the instance data of a facility session.
type FacilitySpec struct {
	Sites   []Point     `json:"sites" doc:"candidate facility locations"`
	Costs   [][]float64 `json:"costs" doc:"costs[i][k] is the price of leasing site i with type k"`
	Batches [][]Point   `json:"batches,omitempty" doc:"the demand stream: batches[t] lists the clients arriving at step t (empty steps allowed); never read by a served session"`
}

// SteinerSpec is the instance data of a steiner session.
type SteinerSpec struct {
	Vertices int              `json:"vertices" doc:"vertex count; vertices are 0..vertices-1"`
	Edges    []Edge           `json:"edges" doc:"the weighted undirected edge list"`
	Requests []ConnectRequest `json:"requests,omitempty" doc:"the demand stream, sorted by arrival step: validated when present, never read by a served session"`
}

// ReusableSpec is the instance data of a reusable session.
type ReusableSpec struct {
	Capacity   int     `json:"capacity" doc:"pool size C: capacity units available for concurrent usages (>= 1)"`
	Prediction float64 `json:"prediction,omitempty" doc:"believed per-step demand probability in (0, 1] for the learning-augmented provisioning rule; 0 selects the worst-case primal-dual rule"`
}

// OpenRequest opens one tenant session: the algorithm family, the lease
// configuration, and (for the instance-based domains) the instance data.
// Build constructs the session's Leaser deterministically from this
// spec, so two builds of the same spec replay identically. The demand
// streams of the instance specs (SetCoverSpec.Arrivals, SCLDSpec.Arrivals,
// FacilitySpec.Batches, SteinerSpec.Requests) are optional: Build
// validates one when present, but a served Leaser never reads it, so a
// spec and its WithoutStream form build Leasers that replay identically.
type OpenRequest struct {
	Domain   string        `json:"domain" doc:"algorithm family: parking, parking-rand, deadline, setcover, scld, facility, steiner or reusable"`
	Types    []LeaseType   `json:"types" doc:"the lease configuration, shortest type first"`
	Seed     int64         `json:"seed,omitempty" doc:"seed of the randomized algorithms (parking-rand, setcover, scld); ignored otherwise"`
	SetCover *SetCoverSpec `json:"setcover,omitempty" doc:"instance data, required when domain is setcover"`
	SCLD     *SCLDSpec     `json:"scld,omitempty" doc:"instance data, required when domain is scld"`
	Facility *FacilitySpec `json:"facility,omitempty" doc:"instance data, required when domain is facility"`
	Steiner  *SteinerSpec  `json:"steiner,omitempty" doc:"instance data, required when domain is steiner"`
	Reusable *ReusableSpec `json:"reusable,omitempty" doc:"instance data, required when domain is reusable"`
}

// ConfigTypes converts a validated lease configuration into its spec
// form, the Types field of an OpenRequest.
func ConfigTypes(cfg *lease.Config) []LeaseType {
	out := make([]LeaseType, cfg.K())
	for k := range out {
		out[k] = LeaseType{Length: cfg.Length(k), Cost: cfg.Cost(k)}
	}
	return out
}

// config validates and builds the lease configuration of the spec.
func (r *OpenRequest) config() (*lease.Config, error) {
	types := make([]lease.Type, len(r.Types))
	for i, t := range r.Types {
		types[i] = lease.Type{Length: t.Length, Cost: t.Cost}
	}
	cfg, err := lease.NewConfig(types...)
	if err != nil {
		return nil, fmt.Errorf("wire: types: %w", err)
	}
	return cfg, nil
}

// WithoutStream returns the spec without its demand stream: the
// Arrivals, Batches or Requests of its instance spec are dropped and
// everything else is kept. This is the form the client sends and a
// durable server logs, so neither an open nor its log record grows with
// the stream. r itself is not modified.
func (r OpenRequest) WithoutStream() OpenRequest {
	if sp := r.SetCover; sp != nil && sp.Arrivals != nil {
		c := *sp
		c.Arrivals = nil
		r.SetCover = &c
	}
	if sp := r.SCLD; sp != nil && sp.Arrivals != nil {
		c := *sp
		c.Arrivals = nil
		r.SCLD = &c
	}
	if sp := r.Facility; sp != nil && sp.Batches != nil {
		c := *sp
		c.Batches = nil
		r.Facility = &c
	}
	if sp := r.Steiner; sp != nil && sp.Requests != nil {
		c := *sp
		c.Requests = nil
		r.Steiner = &c
	}
	return r
}

// Build constructs the Leaser the spec describes. It is the one
// spec-to-algorithm mapping shared by the server (serving the session)
// and any client-side verifier (replaying the reference), so both sides
// construct bit-identical algorithms. A demand stream in the spec is
// validated (a malformed one fails the build) and otherwise ignored:
// the Leaser serves the events it is given.
func (r *OpenRequest) Build() (stream.Leaser, error) {
	cfg, err := r.config()
	if err != nil {
		return nil, err
	}
	switch r.Domain {
	case DomainParking:
		alg, err := parking.NewDeterministic(cfg)
		if err != nil {
			return nil, err
		}
		return parking.NewLeaser(alg), nil

	case DomainParkingRand:
		alg, err := parking.NewRandomized(cfg, rand.New(rand.NewSource(r.Seed)))
		if err != nil {
			return nil, err
		}
		return parking.NewLeaser(alg), nil

	case DomainDeadline:
		alg, err := deadline.NewOnline(cfg)
		if err != nil {
			return nil, err
		}
		return deadline.NewLeaser(alg), nil

	case DomainSetCover:
		sp := r.SetCover
		if sp == nil {
			return nil, fmt.Errorf("wire: domain %s requires the setcover spec", r.Domain)
		}
		fam, err := setcover.NewFamily(sp.Elements, sp.Sets)
		if err != nil {
			return nil, err
		}
		arrivals := make([]workload.ElementArrival, len(sp.Arrivals))
		for i, a := range sp.Arrivals {
			arrivals[i] = workload.ElementArrival{T: a.T, Elem: a.Elem, P: a.P}
		}
		scope := setcover.PerArrival
		if sp.PerElement {
			scope = setcover.PerElement
		}
		inst, err := setcover.NewInstance(fam, cfg, sp.Costs, arrivals, scope)
		if err != nil {
			return nil, err
		}
		alg, err := setcover.NewOnline(inst, rand.New(rand.NewSource(r.Seed)), setcover.Options{})
		if err != nil {
			return nil, err
		}
		return setcover.NewLeaser(alg), nil

	case DomainSCLD:
		sp := r.SCLD
		if sp == nil {
			return nil, fmt.Errorf("wire: domain %s requires the scld spec", r.Domain)
		}
		fam, err := setcover.NewFamily(sp.Elements, sp.Sets)
		if err != nil {
			return nil, err
		}
		arrivals := make([]deadline.SCLDArrival, len(sp.Arrivals))
		for i, a := range sp.Arrivals {
			arrivals[i] = deadline.SCLDArrival{T: a.T, Elem: a.Elem, D: a.D}
		}
		inst, err := deadline.NewSCLDInstance(fam, cfg, sp.Costs, arrivals)
		if err != nil {
			return nil, err
		}
		alg, err := deadline.NewSCLDOnline(inst, rand.New(rand.NewSource(r.Seed)))
		if err != nil {
			return nil, err
		}
		return deadline.NewSCLDStream(alg), nil

	case DomainFacility:
		sp := r.Facility
		if sp == nil {
			return nil, fmt.Errorf("wire: domain %s requires the facility spec", r.Domain)
		}
		sites := make([]metric.Point, len(sp.Sites))
		for i, p := range sp.Sites {
			sites[i] = metric.Point{X: p.X, Y: p.Y}
		}
		batches := make([][]metric.Point, len(sp.Batches))
		for t, b := range sp.Batches {
			if b == nil {
				continue
			}
			batches[t] = make([]metric.Point, len(b))
			for i, p := range b {
				batches[t][i] = metric.Point{X: p.X, Y: p.Y}
			}
		}
		inst, err := facility.NewInstance(cfg, sites, sp.Costs, batches)
		if err != nil {
			return nil, err
		}
		alg, err := facility.NewOnline(inst, facility.Options{})
		if err != nil {
			return nil, err
		}
		return facility.NewLeaser(alg), nil

	case DomainSteiner:
		sp := r.Steiner
		if sp == nil {
			return nil, fmt.Errorf("wire: domain %s requires the steiner spec", r.Domain)
		}
		edges := make([]graph.Edge, len(sp.Edges))
		for i, e := range sp.Edges {
			edges[i] = graph.Edge{U: e.U, V: e.V, Weight: e.W}
		}
		g, err := graph.New(sp.Vertices, edges)
		if err != nil {
			return nil, err
		}
		reqs := make([]steiner.Request, len(sp.Requests))
		for i, c := range sp.Requests {
			reqs[i] = steiner.Request{Time: c.T, S: c.S, T: c.U}
		}
		inst, err := steiner.NewInstance(g, cfg, reqs)
		if err != nil {
			return nil, err
		}
		alg, err := steiner.NewOnline(inst)
		if err != nil {
			return nil, err
		}
		return steiner.NewLeaser(alg), nil

	case DomainReusable:
		sp := r.Reusable
		if sp == nil {
			return nil, fmt.Errorf("wire: domain %s requires the reusable spec", r.Domain)
		}
		alg, err := reusable.NewOnline(cfg, sp.Capacity, reusable.Options{Prediction: sp.Prediction})
		if err != nil {
			return nil, err
		}
		return reusable.NewLeaser(alg), nil

	default:
		return nil, fmt.Errorf("wire: unknown domain %q (want one of %v)", r.Domain, Domains())
	}
}
