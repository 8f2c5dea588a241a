// Package simcore provides the low-level machinery shared by the
// single-cycle network simulator: a fast deterministic PRNG and a timing
// wheel that delivers events (packet arrivals, credit returns) at future
// cycles without a priority queue.
package simcore

import (
	"fmt"
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded through splitmix64). Every stochastic component of
// the simulator (traffic sources, misroute port selection, allocator tie
// breaks) owns an RNG derived from the run seed, which makes whole
// simulations bit-reproducible regardless of map iteration order or
// scheduling.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, so that
// nearby seeds produce uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state (cannot happen via splitmix64, but keep the
	// invariant explicit).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Derive returns a new independent generator; the stream index separates
// sub-streams derived from the same parent.
func (r *RNG) Derive(stream uint64) *RNG {
	return NewRNG(r.Uint64() ^ (stream * 0x9e3779b97f4a7c15))
}

// State returns a snapshot of the generator's internal state. Two RNGs with
// equal state produce identical streams; tests use this to prove a code path
// consumed no randomness (e.g. that an idle router cycle draws nothing).
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with a snapshot taken
// by State, resuming the stream exactly where it was captured. The all-zero
// state is rejected: xoshiro256** is a fixed point there (the stream would
// be all zeros forever), and no reachable generator ever has it.
func (r *RNG) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return fmt.Errorf("simcore: RNG state cannot be all zero")
	}
	r.s = s
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simcore: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BernoulliThreshold returns the integer form of a Bernoulli(p) trial:
// Float64() < p ⇔ Uint64()>>11 < t with t = ceil(p·2^53), because the 53-bit
// draw k and p·2^53 are both exact in float64 and k < x ⇔ k < ceil(x) for an
// integer k. draws is false in the cases where Bernoulli consumes no draw at
// all: p ≤ 0 (never, t = 0) and p ≥ 1 (always, t = 2^53). A NaN p draws and
// never succeeds, as in Bernoulli.
func BernoulliThreshold(p float64) (t uint64, draws bool) {
	switch {
	case p <= 0:
		return 0, false
	case p >= 1:
		return 1 << 53, false
	case p != p:
		return 0, true
	}
	return uint64(math.Ceil(p * (1 << 53))), true
}

// ScanBelow consumes draws until one satisfies Uint64()>>11 < t or max have
// been consumed, and returns how many it consumed and whether the last one
// satisfied the test. It leaves the generator exactly where n Uint64 calls
// would: with t from BernoulliThreshold it is n consecutive Bernoulli(p)
// trials stopping at the first success, with the xoshiro state held in
// registers instead of being loaded and stored per trial.
func (r *RNG) ScanBelow(t uint64, max int) (n int, hit bool) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for n < max {
		u := rotl(s1*5, 7) * 9
		x := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= x
		s3 = rotl(s3, 45)
		n++
		if u>>11 < t {
			hit = true
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return n, hit
}
