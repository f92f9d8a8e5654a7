package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// Property tests for the placement ring, seeded and deterministic: the
// tenant population is drawn from a fixed-seed PRNG, so every asserted
// bound is a pinned fact about the shipped hash, not a flaky sample.

const (
	testSeed    = 41
	testTenants = 2048
)

// seededTenants draws a deterministic tenant population.
func seededTenants(tb testing.TB, n int) []string {
	tb.Helper()
	rng := rand.New(rand.NewSource(testSeed))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		t := fmt.Sprintf("tenant-%08x", rng.Uint32())
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func testMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

func mustRing(tb testing.TB, members []string) *Ring {
	tb.Helper()
	r, err := New(members, 0)
	if err != nil {
		tb.Fatalf("New(%v): %v", members, err)
	}
	return r
}

func TestNewRejectsBadMembers(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Fatal("New(nil) accepted an empty member set")
	}
	if _, err := New([]string{"a", ""}, 0); err == nil {
		t.Fatal("New accepted an empty member name")
	}
	if _, err := New([]string{"a", "b", "a"}, 0); err == nil {
		t.Fatal("New accepted a duplicate member")
	}
}

// TestOwnerOrderIndependent: ownership is a pure function of the member
// set — the order members are listed in must not matter.
func TestOwnerOrderIndependent(t *testing.T) {
	tenants := seededTenants(t, 256)
	members := testMembers(5)
	r1 := mustRing(t, members)
	shuffled := []string{members[3], members[0], members[4], members[2], members[1]}
	r2 := mustRing(t, shuffled)
	for _, tn := range tenants {
		if r1.Owner(tn) != r2.Owner(tn) {
			t.Fatalf("tenant %s: owner depends on member order: %s vs %s", tn, r1.Owner(tn), r2.Owner(tn))
		}
		if r1.Replica(tn) != r2.Replica(tn) {
			t.Fatalf("tenant %s: replica depends on member order", tn)
		}
	}
}

// TestSuccessorsDistinct: Successors returns distinct members, owner
// first, replica second; a single-member ring has no replica.
func TestSuccessorsDistinct(t *testing.T) {
	r := mustRing(t, testMembers(4))
	for _, tn := range seededTenants(t, 128) {
		s := r.Successors(tn, 4)
		if len(s) != 4 {
			t.Fatalf("tenant %s: got %d successors, want 4", tn, len(s))
		}
		seen := map[string]bool{}
		for _, m := range s {
			if seen[m] {
				t.Fatalf("tenant %s: duplicate successor %s", tn, m)
			}
			seen[m] = true
		}
		if s[0] != r.Owner(tn) {
			t.Fatalf("tenant %s: successors[0] = %s, owner = %s", tn, s[0], r.Owner(tn))
		}
		if s[1] != r.Replica(tn) {
			t.Fatalf("tenant %s: successors[1] = %s, replica = %s", tn, s[1], r.Replica(tn))
		}
	}
	single := mustRing(t, testMembers(1))
	if got := single.Replica("anyone"); got != "" {
		t.Fatalf("single-member ring reported replica %q", got)
	}
}

// TestOwnerMinimalMovementOnLeave pins the failover keystone: removing
// a member moves exactly that member's tenants and nothing else, and
// every moved tenant lands on what was its replica — the node its WAL
// records were being shipped to.
func TestOwnerMinimalMovementOnLeave(t *testing.T) {
	tenants := seededTenants(t, testTenants)
	for n := 2; n <= 16; n++ {
		members := testMembers(n)
		r := mustRing(t, members)
		for _, leave := range members {
			smaller, err := r.Without(leave)
			if err != nil {
				t.Fatalf("n=%d: Without(%s): %v", n, leave, err)
			}
			for _, tn := range tenants {
				before, after := r.Owner(tn), smaller.Owner(tn)
				switch {
				case before != leave && after != before:
					t.Fatalf("n=%d leave=%s: tenant %s moved %s -> %s without owning node leaving",
						n, leave, tn, before, after)
				case before == leave && after != r.Replica(tn):
					t.Fatalf("n=%d leave=%s: tenant %s failed over to %s, want its replica %s",
						n, leave, tn, after, r.Replica(tn))
				}
			}
		}
	}
}

// TestOwnerMinimalMovementOnJoin: adding a member only moves tenants
// the new member claims.
func TestOwnerMinimalMovementOnJoin(t *testing.T) {
	tenants := seededTenants(t, testTenants)
	for n := 1; n <= 15; n++ {
		r := mustRing(t, testMembers(n))
		joined := fmt.Sprintf("http://10.0.1.%d:8080", n+1)
		bigger := mustRing(t, append(testMembers(n), joined))
		for _, tn := range tenants {
			before, after := r.Owner(tn), bigger.Owner(tn)
			if after != before && after != joined {
				t.Fatalf("n=%d: tenant %s moved %s -> %s, but only %s joined",
					n, tn, before, after, joined)
			}
		}
	}
}

// TestOwnerBalance: across 1..16 nodes the hash alone spreads the
// seeded population evenly — no member owns more than 1.25 times its
// even share (the bound docs/CLUSTER.md states) — and every owner is a
// member.
func TestOwnerBalance(t *testing.T) {
	tenants := seededTenants(t, testTenants)
	for n := 1; n <= 16; n++ {
		r := mustRing(t, testMembers(n))
		load := map[string]int{}
		for _, tn := range tenants {
			m := r.Owner(tn)
			if !r.Has(m) {
				t.Fatalf("n=%d: tenant %s owned by non-member %s", n, tn, m)
			}
			load[m]++
		}
		for m, c := range load {
			if float64(c)*float64(n) > 1.25*float64(len(tenants)) {
				t.Errorf("n=%d: node %s owns %d of %d tenants, over 1.25 times its even share", n, m, c, len(tenants))
			}
		}
	}
}
