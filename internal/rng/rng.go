// Package rng provides seeded, splittable random number utilities used
// throughout the evolutionary forecasting system.
//
// Reproducibility is a first-class requirement: every stochastic
// component (series generators, population initialization, genetic
// operators, parallel executions) draws from an *rng.Source created
// from an explicit seed. Parallel work splits independent child
// streams with Split, so results are identical regardless of the
// number of goroutines used. Fork gives a lookahead view of a stream:
// it yields exactly the draws its parent will yield next, so a caller
// can rehearse future work without disturbing the stream itself.
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source with convenience helpers for
// the ranges and distributions the forecasting system needs. It wraps
// math/rand.Rand and is NOT safe for concurrent use; use Split to give
// each goroutine its own stream.
type Source struct {
	r    *rand.Rand
	seed int64
	// gen is the generator r draws from directly until the first Fork;
	// from then on r reads through la, which first replays the raw
	// draws forks have taken ahead of it. nil in a fork.
	gen rand.Source64
	la  *lookahead
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	gen := rand.NewSource(seed).(rand.Source64)
	return &Source{r: rand.New(gen), seed: seed, gen: gen}
}

// Fork returns a lookahead view of the stream: the fork yields exactly
// the draws s will yield next, through every method, while s itself is
// left where it was — its next draws replay the ones the fork took.
// This is exact because every math/rand.Rand method is a pure function
// of the raw 64-bit stream, which s buffers on the fork's behalf.
//
// A fork is valid only until s draws again; using it afterwards panics
// rather than return draws that no longer lie ahead of s. Several
// forks taken at the same point all replay the same future. A fork
// cannot itself be forked. A Source that is never forked pays nothing
// for the capability: the buffering starts with the first Fork.
func (s *Source) Fork() *Source {
	if s.gen == nil {
		panic("rng: Fork of a fork")
	}
	if s.la == nil {
		s.la = &lookahead{gen: s.gen}
		s.r = rand.New(parentView{s.la})
	} else if la := s.la; la.head > 0 {
		// Drop the prefix s has consumed, so the buffer holds at most one
		// lookahead however many forks s takes without draining it. Forks
		// read relative to head, so live ones keep their place.
		n := copy(la.buf, la.buf[la.head:])
		la.buf, la.head = la.buf[:n], 0
	}
	return &Source{r: rand.New(&forkView{la: s.la, base: s.la.pos}), seed: s.seed}
}

// lookahead is the raw-draw buffer a forked Source shares with its
// forks: the draws forks have taken that the parent has not consumed.
type lookahead struct {
	gen  rand.Source64
	buf  []uint64 // buf[head:] lie ahead of the parent, oldest first
	head int
	pos  uint64 // raw draws the parent has consumed since the first Fork
}

// rawMask is what math/rand's generator masks a raw draw with for
// Int63, so a replayed Int63 equals the one the generator would give.
const rawMask = 1<<63 - 1

// parentView is the forked parent's source: buffered draws first, then
// fresh ones from the generator.
type parentView struct{ la *lookahead }

func (p parentView) Uint64() uint64 {
	la := p.la
	la.pos++
	if la.head == len(la.buf) {
		return la.gen.Uint64()
	}
	v := la.buf[la.head]
	if la.head++; la.head == len(la.buf) {
		la.buf, la.head = la.buf[:0], 0
	}
	return v
}

func (p parentView) Int63() int64 { return int64(p.Uint64() & rawMask) }

func (parentView) Seed(int64) { panic("rng: Seed on a Source's generator") }

// forkView is a fork's source: it reads the parent's future, drawing
// it from the generator into the shared buffer the first time any fork
// reaches it.
type forkView struct {
	la   *lookahead
	base uint64 // la.pos when the fork was taken
	off  int    // draws this fork has taken
}

func (f *forkView) Uint64() uint64 {
	la := f.la
	if la.pos != f.base {
		panic("rng: fork used after its parent drew again")
	}
	i := la.head + f.off
	f.off++
	if i < len(la.buf) {
		return la.buf[i]
	}
	v := la.gen.Uint64()
	la.buf = append(la.buf, v)
	return v
}

func (f *forkView) Int63() int64 { return int64(f.Uint64() & rawMask) }

func (*forkView) Seed(int64) { panic("rng: Seed on a fork") }

// Seed returns the seed this source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Split derives an independent child stream. The child's seed is a
// mix of the parent seed and the parent's own stream, so successive
// Split calls return distinct, reproducible streams.
func (s *Source) Split() *Source {
	// SplitMix64-style finalizer over a fresh draw keeps child streams
	// well separated even for adjacent parent seeds.
	z := uint64(s.r.Int63()) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return New(int64(z))
}

// SplitN returns n independent child streams.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Norm returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) Norm(mean, std float64) float64 {
	return mean + std*s.r.NormFloat64()
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate).
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp requires rate > 0")
	}
	return s.r.ExpFloat64() / rate
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Roulette performs fitness-proportional (roulette-wheel) selection
// over the given non-negative weights and returns the chosen index.
// If all weights are zero (or the slice is empty) it falls back to a
// uniform pick; negative weights are treated as zero.
func (s *Source) Roulette(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Roulette over empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
			total += w
		}
	}
	if total <= 0 {
		return s.r.Intn(len(weights))
	}
	target := s.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
			acc += w
		}
		if acc > target {
			return i
		}
	}
	return len(weights) - 1
}
