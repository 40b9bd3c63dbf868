// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every stochastic component of the simulator
// (user behaviour, game content, PFI permutation shuffles).
//
// Determinism matters here: each figure in the paper is regenerated from a
// fixed seed, so runs are bit-reproducible across machines. The generator
// is an xoshiro256** core with a splitmix64 seeder, both public-domain
// algorithms, implemented directly so the package depends only on stdlib.
package rng

import "math"

// Source is a deterministic random source. It is NOT safe for concurrent
// use; split one per goroutine with Split instead of sharing.
type Source struct {
	s [4]uint64
}

// splitmix64 is used to seed the xoshiro state from a single 64-bit value
// and to derive child seeds in Split.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a source seeded from the given value. Two sources built from
// the same seed produce identical streams.
func New(seed uint64) *Source {
	var r Source
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Split derives an independent child source. The child's stream is
// statistically independent of the parent's subsequent output, letting
// subsystems (each game, each sensor, PFI) own a private stream while the
// whole experiment remains a function of one root seed.
func (r *Source) Split() *Source {
	x := r.Uint64()
	return New(splitmix64(&x))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill;
	// modulo bias is negligible for the small n used here, but we still
	// use rejection sampling for exactness.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Box–Muller; one value per
// call, the pair's second value is discarded for simplicity).
func (r *Source) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
