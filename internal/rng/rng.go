// Package rng implements the deterministic pseudo-random number generator
// used throughout the router.
//
// TWGR's coarse routing and switchable-segment optimization both visit
// segments "randomly picked from the whole segment pool" (paper §2); for the
// parallel algorithms every worker needs its own independent stream so runs
// are reproducible regardless of goroutine scheduling. The generator is
// xoshiro256** seeded through splitmix64, the combination recommended by its
// authors; Split derives statistically independent child streams.
package rng

// RNG is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; give each goroutine its own stream via Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Any seed value,
// including zero, yields a usable stream (splitmix64 never produces the
// all-zero xoshiro state).
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split returns a new generator whose stream is independent of r's. The
// child is seeded from the parent's output, so splitting is itself
// deterministic: the same parent state always yields the same children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n") //lint:allow panic-in-library documented contract mirroring math/rand.Intn
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	_ = lo
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)). It draws
// exactly the values Perm(len(p)) draws, so callers can switch between the
// two (e.g. to reuse a scratch buffer) without changing the stream.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- { // Fisher-Yates
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// NormInt returns an integer drawn from an approximately normal distribution
// with the given mean and standard deviation, clamped to be >= min. It uses
// the sum of three uniforms (Irwin-Hall), which is plenty for workload
// synthesis.
func (r *RNG) NormInt(mean, stddev float64, min int) int {
	u := r.Float64() + r.Float64() + r.Float64() - 1.5 // mean 0, var 1/4
	v := mean + stddev*2*u
	n := int(v + 0.5)
	if n < min {
		n = min
	}
	return n
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success.
// It panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1") //lint:allow panic-in-library documented contract mirroring math/rand conventions
	}
	n := 0
	for r.Float64() >= p {
		n++
		if n > 1<<20 { // numerically impossible for sane p; avoid livelock
			break
		}
	}
	return n
}
