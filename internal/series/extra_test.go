package series

import (
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
