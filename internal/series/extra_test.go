package series

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestLorenzChaoticRange(t *testing.T) {
	s, err := Lorenz(DefaultLorenz(2000))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2000 {
		t.Fatalf("len %d", s.Len())
	}
	sum := s.Summary()
	// The x component of the classic attractor lives in roughly ±20.
	if sum.Min < -25 || sum.Max > 25 {
		t.Fatalf("x range [%v,%v] off-attractor", sum.Min, sum.Max)
	}
	// It visits both lobes.
	if sum.Min > -5 || sum.Max < 5 {
		t.Fatalf("x range [%v,%v] stuck in one lobe", sum.Min, sum.Max)
	}
	if stats.StdDev(s.Values) < 3 {
		t.Fatal("series looks flat")
	}
}

func TestLorenzDeterministic(t *testing.T) {
	a, err := Lorenz(DefaultLorenz(500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lorenz(DefaultLorenz(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("Lorenz not deterministic")
		}
	}
}

func TestLorenzErrors(t *testing.T) {
	if _, err := Lorenz(LorenzConfig{N: 0, Dt: 0.01, SampleEvery: 0.1}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Lorenz(LorenzConfig{N: 10, Dt: 0, SampleEvery: 0.1}); err == nil {
		t.Fatal("Dt=0 accepted")
	}
	cfg := DefaultLorenz(10)
	cfg.SampleEvery = cfg.Dt / 2
	if _, err := Lorenz(cfg); err == nil {
		t.Fatal("SampleEvery<Dt accepted")
	}
	cfg = DefaultLorenz(10)
	cfg.Discard = -1
	if _, err := Lorenz(cfg); err == nil {
		t.Fatal("negative Discard accepted")
	}
}

func TestRandomWalk(t *testing.T) {
	s, err := RandomWalk(10000, 0.1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Values[0] != 0 {
		t.Fatalf("walk starts at %v", s.Values[0])
	}
	// Drift dominates over 10k steps: final value ≈ 1000 ± few hundred.
	final := s.Values[s.Len()-1]
	if final < 500 || final > 1500 {
		t.Fatalf("drifted walk ended at %v, want ~1000", final)
	}
	if _, err := RandomWalk(0, 0, 1, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestAddNoise(t *testing.T) {
	base := New("x", make([]float64, 10000))
	noisy := AddNoise(base, 2, 9)
	if noisy.Len() != base.Len() {
		t.Fatal("length changed")
	}
	std := stats.StdDev(noisy.Values)
	if math.Abs(std-2) > 0.1 {
		t.Fatalf("noise std %v, want ~2", std)
	}
	// Original untouched.
	for _, v := range base.Values {
		if v != 0 {
			t.Fatal("AddNoise mutated its input")
		}
	}
	// Zero noise = identical copy.
	same := AddNoise(base, 0, 1)
	for i, v := range same.Values {
		if v != base.Values[i] {
			t.Fatal("zero-noise copy differs")
		}
	}
}

func TestDifference(t *testing.T) {
	s := New("x", []float64{1, 3, 6, 10})
	d, err := Difference(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4}
	for i, v := range want {
		if d.Values[i] != v {
			t.Fatalf("Difference = %v", d.Values)
		}
	}
	if _, err := Difference(New("tiny", []float64{1})); err == nil {
		t.Fatal("single-value series accepted")
	}
}

func TestAggregate(t *testing.T) {
	s := New("x", []float64{1, 3, 5, 7, 9, 11, 99})
	a, err := Aggregate(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 6, 10} // tail 99 truncated
	if a.Len() != 3 {
		t.Fatalf("len %d", a.Len())
	}
	for i, v := range want {
		if a.Values[i] != v {
			t.Fatalf("Aggregate = %v", a.Values)
		}
	}
	if _, err := Aggregate(s, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Aggregate(New("t", []float64{1}), 5); err == nil {
		t.Fatal("k>len accepted")
	}
}
