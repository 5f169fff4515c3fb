package linalg

import (
	"errors"
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

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

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected entries: %v", m.Data)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}})
	i3 := Identity(3)
	got, err := a.Mul(i3)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(got.Data, a.Data, 0) {
		t.Fatalf("A*I != A: %v", got.Data)
	}
}

func TestMulKnownProduct(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	if !vecAlmostEq(got.Data, want, 1e-12) {
		t.Fatalf("product = %v, want %v", got.Data, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatalf("expected ErrShape, got %v", err)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(got, []float64{-2, -2}, 1e-12) {
		t.Fatalf("MulVec = %v", got)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error")
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := a.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", tr.Data)
	}
}

func TestAddScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Scale(2)
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(sum.Data, []float64{3, 6, 9, 12}, 1e-12) {
		t.Fatalf("A+2A = %v", sum.Data)
	}
	if _, err := a.Add(NewMatrix(3, 3)); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMaxAbs(t *testing.T) {
	a := FromRows([][]float64{{1, -7}, {3, 4}})
	if got := a.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
}

func TestStringContainsEntries(t *testing.T) {
	s := FromRows([][]float64{{1.5, 2}}).String()
	if len(s) == 0 {
		t.Fatal("empty String()")
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
