package linalg

import (
	"fmt"
	"math"
)

// Solve solves the square system A x = b by Gaussian elimination with
// partial pivoting. A and b are not modified. It returns ErrSingular
// if a pivot is numerically zero.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("%w: Solve needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d for %dx%d system", ErrShape, len(b), n, n)
	}
	// Working copies (augmented form kept separate for clarity).
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot: find the largest |entry| in this column.
		pivotRow := col
		pivotVal := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > pivotVal {
				pivotVal, pivotRow = v, r
			}
		}
		if pivotVal < 1e-300 {
			return nil, ErrSingular
		}
		if pivotRow != col {
			swapRows(m, pivotRow, col)
			x[pivotRow], x[col] = x[col], x[pivotRow]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			mr, mc := m.Row(r), m.Row(col)
			for j := col; j < n; j++ {
				mr[j] -= f * mc[j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := m.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Cholesky factors a symmetric positive-definite matrix A as L*Lᵀ and
// returns the lower-triangular L. Returns ErrSingular if A is not
// (numerically) positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("%w: Cholesky needs square matrix", ErrShape)
	}
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves A x = b given the Cholesky factor L of A
// (forward then backward substitution).
func SolveCholesky(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if len(b) != n {
		return nil, ErrShape
	}
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		d := l.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		y[i] = s / d
	}
	// Backward: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}
