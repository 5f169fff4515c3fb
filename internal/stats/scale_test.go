package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMinMaxScalerBasics(t *testing.T) {
	s := FitMinMax([]float64{10, 20, 30})
	if s.Lo != 10 || s.Hi != 30 {
		t.Fatalf("fit = %+v", s)
	}
	if got := s.Transform(10); got != 0 {
		t.Fatalf("Transform(10) = %v", got)
	}
	if got := s.Transform(30); got != 1 {
		t.Fatalf("Transform(30) = %v", got)
	}
	if got := s.Transform(20); got != 0.5 {
		t.Fatalf("Transform(20) = %v", got)
	}
	if got := s.Inverse(0.5); got != 20 {
		t.Fatalf("Inverse(0.5) = %v", got)
	}
	if len(s.String()) == 0 {
		t.Fatal("empty String")
	}
}

func TestMinMaxScalerConstantInput(t *testing.T) {
	s := FitMinMax([]float64{5, 5, 5})
	v := s.Transform(5)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("constant-input transform produced %v", v)
	}
}

func TestMinMaxSliceHelpers(t *testing.T) {
	s := FitMinMax([]float64{0, 10})
	xs := []float64{0, 5, 10}
	scaled := s.TransformSlice(xs)
	want := []float64{0, 0.5, 1}
	for i := range want {
		if scaled[i] != want[i] {
			t.Fatalf("TransformSlice = %v", scaled)
		}
	}
	for i := range xs {
		if back := s.Inverse(scaled[i]); math.Abs(back-xs[i]) > 1e-12 {
			t.Fatalf("Inverse(%v) = %v, want %v", scaled[i], back, xs[i])
		}
	}
}

// Property: the transform/inverse round-trip is the identity (within
// float tolerance), for any finite fit sample.
func TestPropertyScalerRoundTrip(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 || math.IsNaN(probe) || math.IsInf(probe, 0) || math.Abs(probe) > 1e9 {
			return true
		}
		mm := FitMinMax(xs)
		span := mm.Hi - mm.Lo
		tol := 1e-9 * (1 + math.Abs(probe) + span)
		return math.Abs(mm.Inverse(mm.Transform(probe))-probe) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
