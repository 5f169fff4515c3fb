package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{2, 3, -1}, 1e-10) {
		t.Fatalf("Solve = %v, want [2 3 -1]", x)
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 4 || a.At(1, 0) != 1 || b[0] != 1 || b[1] != 2 {
		t.Fatal("Solve mutated its inputs")
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatal("non-square accepted")
	}
	if _, err := Solve(Identity(2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("bad rhs length accepted")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the initial pivot position forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{7, 3}, 1e-12) {
		t.Fatalf("Solve = %v, want [7 3]", x)
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 + src.Intn(8)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = src.Uniform(-5, 5)
		}
		// Diagonal dominance keeps the system comfortably non-singular.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+10)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = src.Uniform(-3, 3)
		}
		b, err := a.MulVec(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !vecAlmostEq(got, want, 1e-8) {
			t.Fatalf("round trip failed: got %v want %v", got, want)
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := FromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	})
	if !vecAlmostEq(l.Data, want.Data, 1e-10) {
		t.Fatalf("Cholesky L = %v", l.Data)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestSolveCholeskyMatchesSolve(t *testing.T) {
	a := FromRows([][]float64{{25, 15, -5}, {15, 18, 0}, {-5, 0, 11}})
	b := []float64{1, 2, 3}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := SolveCholesky(l, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x1, x2, 1e-9) {
		t.Fatalf("Cholesky solve %v != GE solve %v", x1, x2)
	}
}

// Property: for random SPD systems, Solve and Cholesky agree.
func TestPropertySolversAgree(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(5)
		// Build SPD as GᵀG + I.
		g := NewMatrix(n, n)
		for i := range g.Data {
			g.Data[i] = src.Uniform(-1, 1)
		}
		spd, err := g.T().Mul(g)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			spd.Set(i, i, spd.At(i, i)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = src.Uniform(-1, 1)
		}
		x1, err := Solve(spd, b)
		if err != nil {
			return false
		}
		l, err := Cholesky(spd)
		if err != nil {
			return false
		}
		x2, err := SolveCholesky(l, b)
		if err != nil {
			return false
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
