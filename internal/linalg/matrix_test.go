package linalg

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from equal-length row slices (copied).
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

// mulVec returns m·x.
func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// gram returns gᵀg.
func gram(g *Matrix) *Matrix {
	out := NewMatrix(g.Cols, g.Cols)
	for i := 0; i < g.Cols; i++ {
		for j := 0; j < g.Cols; j++ {
			s := 0.0
			for k := 0; k < g.Rows; k++ {
				s += g.At(k, i) * g.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0,3) did not panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestCloneIndependent(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestDotNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
