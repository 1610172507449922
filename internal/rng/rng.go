// Package rng provides deterministic, splittable randomness for the
// simulator and the protocols running on it.
//
// Every protocol run is driven by a single 64-bit seed. Per-node,
// per-purpose streams are derived with SplitMix64 so that
//   - runs are exactly reproducible given (seed, graph, parameters),
//   - each node's coin flips are independent of every other node's, and
//   - adding a new consumer of randomness does not perturb existing
//     streams (streams are keyed, not drawn from a shared sequence).
//
// Mix is the one definition of a keyed draw. A hot draw whose leading
// keys are fixed for a whole run (a protocol's coin key, a channel's
// seed and purpose tag) builds a Prefix over them once and draws
// through Prefix.Mix2, which equals Mix over all the keys bit for bit
// at two finalizer rounds per draw.
package rng

import "math/rand"

const (
	// gamma is SplitMix64's state increment (the golden ratio).
	gamma = 0x9e3779b97f4a7c15
	// mixInit is Mix's starting state: pi, nothing up the sleeve.
	mixInit = 0x243f6a8885a308d3
)

// splitmix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 passes BigCrush and is the recommended seeder for the
// xoshiro family; we use it both as a mixer and as a stream generator.
func splitmix64(state *uint64) uint64 {
	*state += gamma
	return finalize(*state)
}

// finalize is SplitMix64's output function of an advanced state.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix combines an arbitrary list of 64-bit keys into a single
// well-distributed 64-bit value. It is used to derive stream seeds from
// (seed, node, purpose) tuples.
func Mix(keys ...uint64) uint64 {
	return finalize(absorb(mixInit, keys) + gamma)
}

// absorb folds keys into a Mix state, one key per two SplitMix64 steps:
// the first step's output is XORed into the advanced state with the
// key, the second's is discarded.
func absorb(state uint64, keys []uint64) uint64 {
	for _, k := range keys {
		state += gamma
		state ^= finalize(state) ^ k
		state += gamma
	}
	return state
}

// Prefix is Mix with its leading keys already absorbed:
// NewPrefix(k...).Mix2(b, c) == Mix(k..., b, c) bit for bit. It holds
// the state after the leading keys, advanced and XORed with the mask
// that the next absorb applies, so a draw costs two finalizer rounds
// whatever the number of leading keys. A Prefix is an immutable value,
// safe to draw from concurrently.
type Prefix uint64

// NewPrefix absorbs the leading keys of a family of draws.
func NewPrefix(keys ...uint64) Prefix {
	t := absorb(mixInit, keys) + gamma
	return Prefix(t ^ finalize(t))
}

// Mix2 returns Mix(k..., b, c) for the prefix's leading keys k: absorb
// of b from the stored mask onwards, absorb of c, and Mix's final step.
func (p Prefix) Mix2(b, c uint64) uint64 {
	t := (uint64(p) ^ b) + gamma + gamma
	return finalize((t ^ finalize(t) ^ c) + gamma + gamma)
}

// Source is a deterministic rand.Source64 backed by xoshiro256**.
type Source struct {
	s [4]uint64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded from the given 64-bit seed via
// SplitMix64, per the xoshiro authors' recommendation.
func NewSource(seed uint64) *Source {
	var src Source
	state := seed
	for i := range src.s {
		src.s[i] = splitmix64(&state)
	}
	// xoshiro must not start at the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits of the stream.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source. It reseeds the stream in place.
func (s *Source) Seed(seed int64) { *s = *NewSource(uint64(seed)) }

// New returns a *rand.Rand over a fresh xoshiro256** stream derived
// from the given keys.
func New(keys ...uint64) *rand.Rand {
	return rand.New(NewSource(Mix(keys...)))
}

// Reseed rewinds a Rand created by New to the stream derived from the
// given keys, in place and allocation-free: Reseed(r, k...) leaves r
// bit-identical to New(k...). This is the run-reuse path — a harness
// that executes many seeds on one protocol stack reseeds the held
// Rands instead of constructing new ones.
func Reseed(r *rand.Rand, keys ...uint64) {
	r.Seed(int64(Mix(keys...)))
}
