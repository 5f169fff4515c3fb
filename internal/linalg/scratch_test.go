package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// fitsBitIdentical compares two fits field by field at the bit level
// (so NaN == NaN and -0 != +0).
func fitsBitIdentical(a, b *LinearFit) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Coef) != len(b.Coef) ||
		math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) {
		return false
	}
	for j := range a.Coef {
		if math.Float64bits(a.Coef[j]) != math.Float64bits(b.Coef[j]) {
			return false
		}
	}
	return true
}

// Property: FitAffineScratch is FitAffine bit for bit — same
// coefficients, same intercept, same error behaviour — across random
// geometries (up to 32 genes and a few thousand rows), exact zeros
// (the accumulator's skip path), huge and denormal magnitudes,
// rank-deficient designs (the non-PD Gaussian fallback), and with a
// single dirty scratch reused across all of it.
func TestPropertyFitScratchBitIdentical(t *testing.T) {
	var sc FitScratch // deliberately shared and dirty across trials
	g := func(seed int64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(40)
		if src.Bool(0.1) {
			n = 1 + src.Intn(3000)
		}
		d := 1 + src.Intn(32)
		return checkFitEquivalence(src, n, d, &sc)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func checkFitEquivalence(src *rng.Source, n, d int, sc *FitScratch) bool {
	xs := make([][]float64, n)
	y := make([]float64, n)
	dup := src.Bool(0.2) // rank-deficient: duplicate one column
	for i := range xs {
		row := make([]float64, d)
		for j := range row {
			switch {
			case src.Bool(0.15):
				row[j] = 0 // exact zero: the skip path
			case src.Bool(0.05):
				row[j] = src.Uniform(-1, 1) * 1e150
			case src.Bool(0.05):
				row[j] = src.Uniform(-1, 1) * 1e-300
			default:
				row[j] = src.Uniform(-3, 3)
			}
		}
		if dup && d > 1 {
			row[d-1] = row[0]
		}
		xs[i] = row
		y[i] = src.Uniform(-3, 3)
	}
	ridge := []float64{0, 0, 1e-8, 1e-3}[src.Intn(4)]

	want, errW := FitAffine(xs, y, ridge)
	got, errS := FitAffineScratch(xs, y, ridge, sc)
	if (errW == nil) != (errS == nil) {
		return false
	}
	if errW != nil {
		return true
	}
	return fitsBitIdentical(got, want)
}

// TestFitScratchResultUnaliased pins the escape contract: the returned
// fit owns its storage, so later fits through the same scratch (and
// caller scribbling) must not disturb it.
func TestFitScratchResultUnaliased(t *testing.T) {
	src := rng.New(7)
	var sc FitScratch
	mk := func(shift float64) ([][]float64, []float64) {
		xs := make([][]float64, 12)
		y := make([]float64, 12)
		for i := range xs {
			xs[i] = []float64{src.Uniform(-1, 1) + shift, src.Uniform(-1, 1)}
			y[i] = src.Uniform(-1, 1)
		}
		return xs, y
	}
	xs, y := mk(0)
	first, err := FitAffineScratch(xs, y, 1e-8, &sc)
	if err != nil {
		t.Fatal(err)
	}
	snap := first.Clone()
	for i := 0; i < 10; i++ {
		xs2, y2 := mk(float64(i))
		other, err := FitAffineScratch(xs2, y2, 1e-8, &sc)
		if err != nil {
			t.Fatal(err)
		}
		for j := range other.Coef {
			other.Coef[j] = math.Inf(1) // caller trashes its result
		}
	}
	if !fitsBitIdentical(first, snap) {
		t.Fatalf("earlier fit mutated by later scratch reuse: %+v, want %+v", first, snap)
	}
}

// TestFitScratchErrors pins the error cases against FitAffine's.
func TestFitScratchErrors(t *testing.T) {
	var sc FitScratch
	if _, err := FitAffineScratch(nil, nil, 0, &sc); err == nil {
		t.Fatal("no observations must error")
	}
	if _, err := FitAffineScratch([][]float64{{1, 2}}, []float64{1, 2}, 0, &sc); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := FitAffineScratch([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0, &sc); err == nil {
		t.Fatal("ragged observation must error")
	}
}
