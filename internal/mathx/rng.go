// Package mathx provides the numeric substrate for the sampler: deterministic
// random number generation, samplers for the Gamma, Beta, Dirichlet and
// Normal distributions, small float32 vector kernels, and log-space helpers.
//
// Everything in this package is allocation-conscious: the samplers and vector
// kernels are used inside the inner loops of update_phi and update_beta,
// which execute M × |V_n| × K times per iteration.
package mathx

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256++ seeded through SplitMix64). Each worker thread owns one RNG,
// derived from a master seed and a stream identifier, so that parallel runs
// are reproducible regardless of goroutine scheduling.
//
// RNG is not safe for concurrent use; give each goroutine its own instance.
type RNG struct {
	s0, s1, s2, s3 uint64
	// cached spare normal variate (Box-Muller produces pairs)
	haveSpare bool
	spare     float64
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// NewStream derives an independent generator for stream id from a master
// seed. It is the canonical way to hand per-vertex or per-thread RNGs out of
// a single experiment seed.
func NewStream(master uint64, stream uint64) *RNG {
	r := &RNG{}
	r.SeedStream(master, stream)
	return r
}

// SeedStream reseeds r in place to the exact state NewStream(master, stream)
// would construct — the allocation-free form for hot loops that derive one
// stream per vertex per iteration and keep a pooled RNG value per slot.
func (r *RNG) SeedStream(master uint64, stream uint64) {
	// Mix the stream id through SplitMix64 twice so that adjacent stream
	// ids land far apart in the seed space.
	r.Seed(splitmix64(&master) ^ bitsMix(stream))
}

func bitsMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seed resets the generator state from a 64-bit seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	r.haveSpare = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform sample in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform sample in (0, 1); it never returns exactly 0,
// which keeps log() and division safe in the samplers.
func (r *RNG) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform sample from {0, 1, ..., n-1}. It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform sample from {0, ..., n-1}. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("mathx: Uint64n with zero n")
	}
	// Lemire 2019: unbiased bounded generation with 128-bit multiply.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}

// Norm returns a standard normal sample using the polar Box-Muller method.
func (r *RNG) Norm() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// Perm fills out with a uniformly random permutation of {0, ..., len(out)-1}
// using the inside-out Fisher-Yates shuffle.
func (r *RNG) Perm(out []int) {
	for i := range out {
		j := r.Intn(i + 1)
		out[i] = out[j]
		out[j] = i
	}
}
