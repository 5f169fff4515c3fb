package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestLeastSquaresExactLine(t *testing.T) {
	// y = 3x + 2 sampled without noise: design has [x, 1] columns.
	x := fromRows([][]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}})
	y := []float64{2, 5, 8, 11}
	beta, err := LeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(beta, []float64{3, 2}, 1e-10) {
		t.Fatalf("beta = %v, want [3 2]", beta)
	}
}

func TestLeastSquaresShapeError(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(3, 2), []float64{1, 2}, 0); err == nil {
		t.Fatal("mismatched targets accepted")
	}
}

func TestLeastSquaresRidgeHandlesUnderdetermined(t *testing.T) {
	// Two observations, three coefficients: singular without ridge.
	x := fromRows([][]float64{{1, 2, 1}, {2, 4, 1}})
	y := []float64{1, 2}
	if _, err := LeastSquares(x, y, 0); err == nil {
		t.Fatal("singular normal equations unexpectedly solvable without ridge")
	}
	beta, err := LeastSquares(x, y, 1e-8)
	if err != nil {
		t.Fatalf("ridge solve failed: %v", err)
	}
	// The ridge solution should still reproduce the observations well.
	for i := 0; i < x.Rows; i++ {
		pred := Dot(x.Row(i), beta)
		if math.Abs(pred-y[i]) > 1e-3 {
			t.Fatalf("ridge fit residual too large at %d: pred %v want %v", i, pred, y[i])
		}
	}
}

func TestFitAffineRecoversPlane(t *testing.T) {
	src := rng.New(3)
	coef := []float64{1.5, -2.0, 0.5}
	intercept := 4.0
	var xs [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		row := []float64{src.Uniform(-5, 5), src.Uniform(-5, 5), src.Uniform(-5, 5)}
		xs = append(xs, row)
		y = append(y, Dot(coef, row)+intercept)
	}
	fit, err := FitAffine(xs, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(fit.Coef, coef, 1e-8) || !almostEq(fit.Intercept, intercept, 1e-8) {
		t.Fatalf("fit = %+v", fit)
	}
	if res := maxAbsResidual(fit, xs, y); res > 1e-8 {
		t.Fatalf("noise-free fit residual %v", res)
	}
}

func TestFitAffineErrors(t *testing.T) {
	if _, err := FitAffine(nil, nil, 0); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := FitAffine([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := FitAffine([][]float64{{1, 2}, {3}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("ragged observations accepted")
	}
}

func TestFitAffinePredictPanicsOnWrongWidth(t *testing.T) {
	fit := &LinearFit{Coef: []float64{1, 2}, Intercept: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict with wrong width did not panic")
		}
	}()
	fit.Predict([]float64{1})
}

// Property: least-squares residuals are orthogonal to the column space
// (normal equations hold), checked on random well-conditioned systems.
func TestPropertyResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n, p := 30, 4
		x := NewMatrix(n, p)
		for i := range x.Data {
			x.Data[i] = src.Uniform(-2, 2)
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = src.Uniform(-2, 2)
		}
		beta, err := LeastSquares(x, y, 0)
		if err != nil {
			return true // ill-conditioned draw; property vacuous
		}
		// r = y - X beta must satisfy Xᵀ r ≈ 0.
		for a := 0; a < p; a++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += x.At(i, a) * (y[i] - Dot(x.Row(i), beta))
			}
			if math.Abs(s) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding ridge never produces a solution with larger norm
// than a smaller ridge on the same system (shrinkage is monotone).
func TestPropertyRidgeShrinks(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n, p := 20, 3
		x := NewMatrix(n, p)
		for i := range x.Data {
			x.Data[i] = src.Uniform(-1, 1)
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = src.Uniform(-1, 1)
		}
		small, err1 := LeastSquares(x, y, 1e-6)
		big, err2 := LeastSquares(x, y, 1e2)
		if err1 != nil || err2 != nil {
			return true
		}
		return norm2(big) <= norm2(small)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// maxAbsResidual returns max_i |y_i - f(x_i)|.
func maxAbsResidual(f *LinearFit, xs [][]float64, y []float64) float64 {
	max := 0.0
	for i, row := range xs {
		if r := math.Abs(y[i] - f.Predict(row)); r > max {
			max = r
		}
	}
	return max
}

// norm2 returns the Euclidean norm of v.
func norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }
