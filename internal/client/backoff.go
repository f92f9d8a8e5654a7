package client

// Retry backoff. The schedule is exponential doubling capped at 64x the
// base — as before — but each delay is jittered: concurrent producers
// that hit the same backpressure event would otherwise back off in
// lockstep and re-arrive as the same thundering herd they just formed.
// The jitter is deterministic: a seed fully pins the schedule, so tests
// assert exact delays and two runs of the same workload behave
// identically.

import (
	"math/rand"
	"time"
)

// backoffCap bounds the exponential step at this multiple of the base.
const backoffCap = 64

// newSource builds a schedule's jitter source on its first wait. It is
// a variable so tests can count the sources a submit builds.
var newSource = rand.NewSource

// backoff produces one retry schedule. Not safe for concurrent use;
// make one per retry loop.
type backoff struct {
	base time.Duration
	step time.Duration
	seed int64
	rng  *rand.Rand // built by the first wait: most submits never retry
}

// newBackoff starts a schedule at base. The seed fully determines every
// delay the schedule will produce.
func newBackoff(base time.Duration, seed int64) *backoff {
	return &backoff{base: base, step: base, seed: seed}
}

// wait returns the next delay — half the current exponential step plus
// a seeded-uniform half ("equal jitter"), which keeps the expected wait
// of the unjittered schedule while decorrelating producers — and then
// advances the step.
func (b *backoff) wait() time.Duration {
	if b.rng == nil {
		b.rng = rand.New(newSource(b.seed))
	}
	half := b.step / 2
	d := half + time.Duration(b.rng.Int63n(int64(half)+1))
	if b.step < backoffCap*b.base {
		b.step *= 2
	}
	return d
}

// reset rewinds the schedule to its first step after forward progress.
// The jitter stream deliberately keeps advancing: the schedule stays a
// pure function of the seed and the call sequence.
func (b *backoff) reset() { b.step = b.base }

// tenantSeed mixes a client-level seed with the tenant name (FNV-1a),
// so producers for different tenants jitter independently while any
// given (seed, tenant) pair replays the same schedule.
func tenantSeed(seed int64, tenant string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= 1099511628211
	}
	return seed ^ int64(h)
}
