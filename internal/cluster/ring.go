// Package cluster places tenants on a fleet of lease-service nodes and
// ships their write-ahead-log records to a replica, so that one node's
// death fails its tenants over with byte-identical recovered state.
//
// Placement is consistent hashing with virtual nodes: each member is
// hashed onto a ring at Vnodes points, and a tenant is owned by the
// first member clockwise from its own hash. Ownership of a tenant is a
// pure function of (members, tenant) — independent of every other
// tenant — so a membership change moves only the tenants owned by (or
// newly claimed by) the affected node, never reshuffles the rest. The
// replica of a tenant is the next distinct member clockwise, which is
// exactly where the tenant lands when its owner is removed from the
// ring: shipped history is already sitting on the failover target.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per member. 256 points per
// member keeps the seeded balance and movement properties in
// ring_test.go within their bounds up to 16 nodes.
const DefaultVnodes = 256

// Ring is an immutable consistent-hash ring over a member set. Create
// it with New; derive a ring without a failed member with Without. All
// methods are safe for concurrent use.
type Ring struct {
	vnodes  int
	members []string // sorted, unique
	points  []point  // sorted by hash
}

// point is one virtual node: a position on the ring owned by a member.
type point struct {
	hash   uint64
	member int // index into members
}

// New builds a ring over the given members with vnodes virtual nodes
// each (DefaultVnodes when vnodes <= 0). Member order does not matter;
// duplicates and empty names are rejected.
func New(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if i > 0 && sorted[i-1] == m {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
	}
	r := &Ring{
		vnodes:  vnodes,
		members: sorted,
		points:  make([]point, 0, vnodes*len(sorted)),
	}
	for mi, m := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: vnodeHash(m, v), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (vanishingly rare) break on the member name so the
		// ring stays a pure function of the member set.
		return r.members[a.member] < r.members[b.member]
	})
	return r, nil
}

// Members returns the member set, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Has reports whether member is in the ring.
func (r *Ring) Has(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// Without derives a ring with member removed.
func (r *Ring) Without(member string) (*Ring, error) {
	if !r.Has(member) {
		return nil, fmt.Errorf("cluster: %q is not a member", member)
	}
	rest := make([]string, 0, len(r.members)-1)
	for _, m := range r.members {
		if m != member {
			rest = append(rest, m)
		}
	}
	return New(rest, r.vnodes)
}

// Owner returns the member owning the tenant: the first virtual node
// clockwise from the tenant's hash.
func (r *Ring) Owner(tenant string) string {
	return r.members[r.points[r.ownerPoint(tenant)].member]
}

// ownerPoint finds the index of the tenant's owning virtual node.
func (r *Ring) ownerPoint(tenant string) int {
	h := ringHash(tenant)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the ring
	}
	return i
}

// Successors returns the first n distinct members clockwise from the
// tenant's hash: index 0 is the owner, index 1 the replica, and so on.
// Fewer are returned when the ring has fewer members.
func (r *Ring) Successors(tenant string, n int) []string {
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.ownerPoint(tenant); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// Replica returns the tenant's replica — the next distinct member
// clockwise from the owner — or "" on a single-member ring. Removing
// the owner makes the replica the new owner, which is why shipping a
// tenant's records to its replica is exactly failover preparation.
func (r *Ring) Replica(tenant string) string {
	s := r.Successors(tenant, 2)
	if len(s) < 2 {
		return ""
	}
	return s[1]
}

// vnodeHash positions one virtual node. FNV alone leaves per-member
// vnode sets near-translations of each other (its multiply only
// diffuses upward), which correlates the arcs; the finalizer gives
// every bit of (member, index) full avalanche so the sets are
// independent.
func vnodeHash(member string, v int) uint64 {
	return finalize(fnv64a(member) ^ (uint64(v) + 0x9e3779b97f4a7c15))
}

// ringHash positions a tenant on the ring.
func ringHash(tenant string) uint64 {
	return finalize(fnv64a(tenant))
}

// finalize is the splitmix64 finalizer: a bijective full-avalanche mix.
func finalize(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// fnv64a is the 64-bit FNV-1a hash — dependency-free and stable across
// platforms, so placement is identical on every node and client.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
