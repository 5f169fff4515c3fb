package rng

import (
	"math"
	"testing"
)

// draw is one Source method under test, returning what it yielded in
// a comparable form.
type draw struct {
	name string
	fn   func(*Source) []float64
}

// draws covers every Source method a fork must replay.
var draws = []draw{
	{"Float64", func(s *Source) []float64 { return []float64{s.Float64()} }},
	{"Uniform", func(s *Source) []float64 { return []float64{s.Uniform(-2, 5)} }},
	{"Intn", func(s *Source) []float64 { return []float64{float64(s.Intn(97))} }},
	{"IntnLarge", func(s *Source) []float64 { return []float64{float64(s.Intn(1 << 40))} }},
	{"Bool", func(s *Source) []float64 { return []float64{b2f(s.Bool(0.3))} }},
	{"Norm", func(s *Source) []float64 { return []float64{s.Norm(1, 2)} }},
	{"Exp", func(s *Source) []float64 { return []float64{s.Exp(3)} }},
	{"Perm", func(s *Source) []float64 { return ints(s.Perm(9)) }},
	{"Roulette", func(s *Source) []float64 {
		return []float64{float64(s.Roulette([]float64{0.5, 0, math.NaN(), 3, -1, 2}))}
	}},
	{"Split", func(s *Source) []float64 {
		c := s.Split()
		return []float64{float64(c.Seed()), c.Float64(), float64(c.Intn(1000))}
	}},
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func ints(v []int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func sameDraws(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestForkReplaysEveryMethod: for each method, a fork yields exactly
// the draws its parent — and an identically seeded, never-forked
// stream — yields next, whether the fork reads less or more of the
// future than the parent then consumes.
func TestForkReplaysEveryMethod(t *testing.T) {
	for _, d := range draws {
		t.Run(d.name, func(t *testing.T) {
			for ahead := 0; ahead <= 6; ahead++ {
				parent, ref := New(int64(17+ahead)), New(int64(17+ahead))
				for i := 0; i < 3; i++ { // unforked prefix
					if !sameDraws(d.fn(parent), d.fn(ref)) {
						t.Fatalf("prefix draw %d diverged before any fork", i)
					}
				}
				fork := parent.Fork()
				var seen [][]float64
				for i := 0; i < ahead; i++ {
					seen = append(seen, d.fn(fork))
				}
				for i := 0; i < 8; i++ {
					got, want := d.fn(parent), d.fn(ref)
					if !sameDraws(got, want) {
						t.Fatalf("ahead=%d: parent draw %d = %v, unforked stream %v", ahead, i, got, want)
					}
					if i < ahead && !sameDraws(seen[i], want) {
						t.Fatalf("ahead=%d: fork draw %d = %v, parent then drew %v", ahead, i, seen[i], want)
					}
				}
			}
		})
	}
}

// TestForkInterleaved drives every method in a pseudo-random mix of
// parent draws, forks, several forks at one point and fork draws, and
// checks each against a never-forked stream of the same seed.
func TestForkInterleaved(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		parent, ref, plan := New(seed), New(seed), New(seed+1000)
		for step := 0; step < 200; step++ {
			d := draws[plan.Intn(len(draws))]
			switch plan.Intn(3) {
			case 0:
				if got, want := d.fn(parent), d.fn(ref); !sameDraws(got, want) {
					t.Fatalf("seed %d step %d %s: parent %v, unforked %v", seed, step, d.name, got, want)
				}
			default:
				// Two forks at one point, reading different distances
				// ahead with the same method sequence; then the parent
				// consumes a random part of that future.
				seq := make([]draw, 1+plan.Intn(5))
				for i := range seq {
					seq[i] = draws[plan.Intn(len(draws))]
				}
				f1, f2 := parent.Fork(), parent.Fork()
				var want [][]float64
				for _, q := range seq {
					want = append(want, q.fn(f1))
				}
				for i, q := range seq[:plan.Intn(len(seq)+1)] {
					if got := q.fn(f2); !sameDraws(got, want[i]) {
						t.Fatalf("seed %d step %d: second fork %s %v, first fork %v", seed, step, q.name, got, want[i])
					}
				}
				for i, q := range seq[:plan.Intn(len(seq)+1)] {
					got, plain := q.fn(parent), q.fn(ref)
					if !sameDraws(got, plain) || !sameDraws(got, want[i]) {
						t.Fatalf("seed %d step %d: parent %s %v, fork %v, unforked %v", seed, step, q.name, got, want[i], plain)
					}
				}
			}
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestStaleForkPanics: once the parent has drawn again, a fork's view
// of the future is gone; using it must panic, never return wrong draws.
func TestStaleForkPanics(t *testing.T) {
	parent := New(3)
	fork := parent.Fork()
	fork.Float64()
	parent.Float64()
	mustPanic(t, "draw from a stale fork", func() { fork.Float64() })

	parent = New(4)
	fork = parent.Fork() // never drawn from before the parent moves on
	parent.Intn(10)
	mustPanic(t, "first draw from a stale fork", func() { fork.Intn(10) })

	mustPanic(t, "Fork of a fork", func() { New(5).Fork().Fork() })
}

// TestForkBufferBounded: a parent that consumes only part of each
// fork's lookahead before forking again keeps a buffer of about one
// lookahead, not one that grows with the number of forks, and still
// replays every draw exactly.
func TestForkBufferBounded(t *testing.T) {
	const ahead = 64
	parent, ref := New(9), New(9)
	for i := 0; i < 10000; i++ {
		fork := parent.Fork()
		want := make([]uint64, ahead)
		for j := range want {
			want[j] = fork.r.Uint64()
		}
		for j := 0; j < 1+i%(ahead/2); j++ {
			got, plain := parent.r.Uint64(), ref.r.Uint64()
			if got != want[j] || got != plain {
				t.Fatalf("fork %d draw %d: parent %x, fork %x, unforked %x", i, j, got, want[j], plain)
			}
		}
		if n := len(parent.la.buf); n > ahead {
			t.Fatalf("fork %d: %d draws buffered, want at most %d", i, n, ahead)
		}
	}
	if c := cap(parent.la.buf); c > 4*ahead {
		t.Fatalf("buffer capacity %d after 10000 partly consumed forks, want at most %d", c, 4*ahead)
	}
}

// BenchmarkNeverForked times a mix of draws from a Source that is
// never forked: the lookahead capability must cost it nothing.
func BenchmarkNeverForked(b *testing.B) {
	s := New(1)
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += s.Float64() + s.Norm(0, 1) + float64(s.Intn(100))
	}
	if sum == 0 {
		b.Fatal("no draws")
	}
}

// BenchmarkForked is the same mix from a forked parent, each iteration
// re-reading the draws a fresh fork took ahead of it.
func BenchmarkForked(b *testing.B) {
	s := New(1)
	sum := 0.0
	for i := 0; i < b.N; i++ {
		f := s.Fork()
		sum += f.Float64() + f.Norm(0, 1) + float64(f.Intn(100))
		sum += s.Float64() + s.Norm(0, 1) + float64(s.Intn(100))
	}
	if sum == 0 {
		b.Fatal("no draws")
	}
}
