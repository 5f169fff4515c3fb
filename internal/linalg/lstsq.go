package linalg

import "fmt"

// LeastSquares fits coefficients beta minimizing ||X*beta - y||² where
// X is n x p (n observations, p predictors). It solves the normal
// equations XᵀX beta = Xᵀy with a Cholesky factorization and a
// Gaussian-elimination fallback.
//
// ridge, if positive, adds ridge*I to XᵀX. The rule system passes a
// tiny ridge (1e-8) so that rules matching fewer points than they have
// coefficients — permitted by the paper's NR>1 fitness gate — still
// receive a well-defined, minimum-norm-like consequent instead of a
// solver failure.
func LeastSquares(x *Matrix, y []float64, ridge float64) ([]float64, error) {
	n, p := x.Rows, x.Cols
	if len(y) != n {
		return nil, fmt.Errorf("%w: %d observations but %d targets", ErrShape, n, len(y))
	}
	// Form XᵀX (p x p) and Xᵀy (p) in one pass over the rows.
	xtx := NewMatrix(p, p)
	xty := make([]float64, p)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		yi := y[i]
		for a := 0; a < p; a++ {
			ra := row[a]
			if ra == 0 {
				continue
			}
			xty[a] += ra * yi
			base := a * p
			for b := a; b < p; b++ {
				xtx.Data[base+b] += ra * row[b]
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			xtx.Set(b, a, xtx.At(a, b))
		}
	}
	if ridge > 0 {
		for a := 0; a < p; a++ {
			xtx.Set(a, a, xtx.At(a, a)+ridge)
		}
	}
	if l, err := Cholesky(xtx); err == nil {
		if beta, err := SolveCholesky(l, xty); err == nil {
			return beta, nil
		}
	}
	return Solve(xtx, xty)
}

// LinearFit is a fitted affine model y ≈ Coef·x + Intercept, the shape
// of a rule consequent in the paper: v ≈ a0*x1 + ... + a(D-1)*xD + aD.
type LinearFit struct {
	Coef      []float64 // one weight per input lag
	Intercept float64
}

// FitAffine fits y ≈ coef·x + intercept over the given observations
// (rows of xs). ridge regularizes as in LeastSquares. If the system
// is unsolvable even with ridge (e.g. zero observations), it returns
// an error.
func FitAffine(xs [][]float64, y []float64, ridge float64) (*LinearFit, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("linalg: FitAffine with no observations")
	}
	if len(xs) != len(y) {
		return nil, fmt.Errorf("%w: %d observations but %d targets", ErrShape, len(xs), len(y))
	}
	d := len(xs[0])
	// Design matrix with a trailing 1-column for the intercept, the
	// encoding used in the paper (aD is the constant term).
	design := NewMatrix(len(xs), d+1)
	for i, row := range xs {
		if len(row) != d {
			return nil, fmt.Errorf("%w: ragged observation %d", ErrShape, i)
		}
		copy(design.Row(i)[:d], row)
		design.Set(i, d, 1)
	}
	beta, err := LeastSquares(design, y, ridge)
	if err != nil {
		return nil, err
	}
	return &LinearFit{Coef: beta[:d], Intercept: beta[d]}, nil
}

// Clone returns a deep copy sharing no storage with f.
func (f *LinearFit) Clone() *LinearFit {
	return &LinearFit{Coef: append([]float64(nil), f.Coef...), Intercept: f.Intercept}
}

// Predict evaluates the fit at x.
func (f *LinearFit) Predict(x []float64) float64 {
	if len(x) != len(f.Coef) {
		panic(fmt.Sprintf("linalg: LinearFit over %d inputs evaluated at %d inputs", len(f.Coef), len(x)))
	}
	return Dot(f.Coef, x) + f.Intercept
}

// ResidualPass returns the largest absolute residual |ys[k] − f(xs[k])|
// over the observations and the sum of their predictions f(xs[k]): the
// paper's e_R and, divided by len(xs), a rule's mean prediction. It is
// bit-identical to calling Predict on each row in order and folding
// both (a NaN residual never raises the maximum). Rows are predicted
// four at a time (residualPass), each in its own accumulator with
// Predict's order of operations, so four dependency chains overlap
// where Predict runs one.
func (f *LinearFit) ResidualPass(xs [][]float64, ys []float64) (maxAbs, sum float64) {
	ys = ys[:len(xs)]
	for _, x := range xs {
		if len(x) != len(f.Coef) {
			f.Predict(x) // panics on the width, as a per-row loop would
		}
	}
	return residualPass(f.Coef, xs, ys, f.Intercept)
}
