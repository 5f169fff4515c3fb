package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedAccessor(t *testing.T) {
	if got := New(7).Seed(); got != 7 {
		t.Fatalf("Seed() = %d, want 7", got)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Seed() == c2.Seed() {
		t.Fatal("successive splits produced identical child seeds")
	}
	// Children of identically-seeded parents must match pairwise.
	p2 := New(1)
	d1 := p2.Split()
	d2 := p2.Split()
	if c1.Seed() != d1.Seed() || c2.Seed() != d2.Seed() {
		t.Fatal("split is not reproducible")
	}
}

func TestSplitN(t *testing.T) {
	kids := New(3).SplitN(8)
	if len(kids) != 8 {
		t.Fatalf("SplitN returned %d children, want 8", len(kids))
	}
	seen := map[int64]bool{}
	for _, k := range kids {
		if seen[k.Seed()] {
			t.Fatalf("duplicate child seed %d", k.Seed())
		}
		seen[k.Seed()] = true
	}
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) produced %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(7)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v, want ~0.25", got)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(8)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("Norm mean %v, want ~2", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("Norm std %v, want ~3", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	s := New(9)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(4)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.25) > 0.01 {
		t.Fatalf("Exp(4) mean %v, want ~0.25", mean)
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestRouletteProportional(t *testing.T) {
	s := New(10)
	weights := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 300000
	for i := 0; i < n; i++ {
		counts[s.Roulette(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("index %d selected with rate %v, want ~%v", i, got, want)
		}
	}
}

func TestRouletteZeroWeightsUniform(t *testing.T) {
	s := New(11)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[s.Roulette([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		got := float64(c) / 40000
		if math.Abs(got-0.25) > 0.02 {
			t.Fatalf("zero-weight roulette index %d rate %v, want ~0.25", i, got)
		}
	}
}

func TestRouletteIgnoresNegativeAndNaN(t *testing.T) {
	s := New(12)
	weights := []float64{-5, math.NaN(), 1, math.Inf(1)}
	for i := 0; i < 10000; i++ {
		idx := s.Roulette(weights)
		if idx != 2 {
			t.Fatalf("roulette picked invalid-weight index %d", idx)
		}
	}
}

func TestRoulettePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Roulette(nil) did not panic")
		}
	}()
	New(1).Roulette(nil)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		p := New(seed).Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouletteAlwaysInRange(t *testing.T) {
	f := func(seed int64, raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		idx := New(seed).Roulette(raw)
		return idx >= 0 && idx < len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
