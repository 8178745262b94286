// Package rng is math/rand's default source with a cheaper seed. Every
// synthetic trace, perturbation, noise stream and tuner search in this
// module draws from rand.New(rng.NewSource(seed)), and the goldens pin
// the bits those streams produce, so the source must be math/rand's:
// NewSource(seed) yields exactly the stream of rand.NewSource(seed), for
// every int64 seed, through every rand.Rand method.
//
// What differs is the cost of seeding. math/rand fills its 607-word
// state from 20 + 3·607 steps of x ← 48271·x mod (2³¹−1), one dependent
// chain of Schrage divisions, and a trace generator pays that fixed cost
// per source before it draws a sample. Seed computes the same words with
// a Mersenne-prime reduction (2³¹ ≡ 1, so a product folds onto its low 31
// bits) in four independent lanes of 152 words, each lane started from
// the seed by a precomputed jump multiplier 48271^k mod (2³¹−1), so the
// four chains overlap in the CPU. Stepping (Uint64, Int63) is math/rand's
// lagged Fibonacci generator unchanged.
//
// The 607-entry rngCooked table that math/rand XORs into the seeded
// state is generated from the Go toolchain's math/rand/rng.go by
// gen_cooked.go (go generate), under the Go Authors' notice and licence;
// FuzzSourceParity compares the streams against math/rand for any seed.
package rng

//go:generate go run gen_cooked.go

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271     // the Lehmer multiplier of math/rand's seedrand

	// laneWords is the number of state words each of Seed's four lanes
	// fills; the last lane fills one fewer (4·152 = 607 + 1).
	laneWords = (rngLen + 3) / 4
)

// laneJump[l] is 48271^(20 + 3·152·l) mod (2³¹−1): math/rand discards 20
// Lehmer steps and then spends three per word, so lane l's first word,
// word 152·l, starts from the seed times laneJump[l].
// TestLaneJumps recomputes them.
var laneJump = [4]uint64{2075782095, 2030957660, 1650184273, 972268434}

// source is math/rand's rngSource: the same state, the same stepping.
type source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

// NewSource returns a source seeded with seed whose stream equals
// math/rand.NewSource(seed)'s. Like math/rand's, it is not safe for
// concurrent use.
func NewSource(seed int64) rand.Source64 {
	s := new(source)
	s.Seed(seed)
	return s
}

// lehmer returns 48271·x mod (2³¹−1) for x in [1, 2³¹−2]. The product is
// below 2⁴⁷, so adding its bits above 31 to its low 31 leaves less than
// 2·(2³¹−1), and one subtraction finishes the reduction.
func lehmer(x uint64) uint64 {
	t := lehmerA * x
	t = t&int32max + t>>31
	if t >= int32max {
		t -= int32max
	}
	return t
}

// Seed sets the state math/rand's rngSource.Seed sets for seed.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := uint64(seed)
	x0 := laneJump[0] * x % int32max
	x1 := laneJump[1] * x % int32max
	x2 := laneJump[2] * x % int32max
	x3 := laneJump[3] * x % int32max
	v0, c0 := s.vec[:laneWords], rngCooked[:laneWords]
	v1, c1 := s.vec[laneWords:2*laneWords], rngCooked[laneWords:2*laneWords]
	v2, c2 := s.vec[2*laneWords:3*laneWords], rngCooked[2*laneWords:3*laneWords]
	v3, c3 := s.vec[3*laneWords:], rngCooked[3*laneWords:]
	// Each word takes three Lehmer steps a, b, c and packs them as
	// math/rand does; the four lanes' steps alternate, so their
	// dependent multiplications overlap.
	for i := range v3 {
		a0, a1, a2, a3 := lehmer(x0), lehmer(x1), lehmer(x2), lehmer(x3)
		b0, b1, b2, b3 := lehmer(a0), lehmer(a1), lehmer(a2), lehmer(a3)
		x0, x1, x2, x3 = lehmer(b0), lehmer(b1), lehmer(b2), lehmer(b3)
		v0[i] = int64(a0<<40^b0<<20^x0) ^ c0[i]
		v1[i] = int64(a1<<40^b1<<20^x1) ^ c1[i]
		v2[i] = int64(a2<<40^b2<<20^x2) ^ c2[i]
		v3[i] = int64(a3<<40^b3<<20^x3) ^ c3[i]
	}
	// Lanes 0–2 have one word more than lane 3.
	last := laneWords - 1
	a0, a1, a2 := lehmer(x0), lehmer(x1), lehmer(x2)
	b0, b1, b2 := lehmer(a0), lehmer(a1), lehmer(a2)
	x0, x1, x2 = lehmer(b0), lehmer(b1), lehmer(b2)
	v0[last] = int64(a0<<40^b0<<20^x0) ^ c0[last]
	v1[last] = int64(a1<<40^b1<<20^x1) ^ c1[last]
	v2[last] = int64(a2<<40^b2<<20^x2) ^ c2[last]
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
