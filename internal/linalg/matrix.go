// Package linalg implements the dense linear algebra the rule system
// needs: small matrices, direct solvers (Gaussian elimination with
// partial pivoting, Cholesky), QR factorization, and ridge-regularized
// linear least squares. Everything is stdlib-only and sized for the
// (D+1)x(D+1) normal equations that arise when fitting a rule
// consequent (D is at most a few dozen in the paper).
package linalg

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a solver encounters a (numerically)
// singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: NewMatrix(%d,%d) with non-positive dimension", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot over different lengths")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
