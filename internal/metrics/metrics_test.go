package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMSERMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	want := []float64{1, 4, 3}
	mse, err := MSE(pred, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mse-4.0/3.0) > 1e-12 {
		t.Fatalf("MSE = %v", mse)
	}
	rmse, err := RMSE(pred, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rmse-math.Sqrt(4.0/3.0)) > 1e-12 {
		t.Fatalf("RMSE = %v", rmse)
	}
}

func TestErrorsOnBadInput(t *testing.T) {
	if _, err := MSE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLength) {
		t.Fatal("MSE length mismatch accepted")
	}
	if _, err := MSE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty MSE accepted")
	}
	if _, err := MAE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLength) {
		t.Fatal("MAE length mismatch accepted")
	}
	if _, err := MAE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty MAE accepted")
	}
	if _, err := GalvanError([]float64{1}, []float64{1, 2}, 1); !errors.Is(err, ErrLength) {
		t.Fatal("Galvan length mismatch accepted")
	}
	if _, err := GalvanError([]float64{1}, []float64{1}, -1); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

func TestMAE(t *testing.T) {
	got, err := MAE([]float64{1, -1}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("MAE = %v", got)
	}
}

func TestNMSEIdentities(t *testing.T) {
	want := []float64{1, 2, 3, 4, 5}
	// Perfect prediction → 0.
	zero, err := NMSE(want, want)
	if err != nil || zero != 0 {
		t.Fatalf("perfect NMSE = %v err %v", zero, err)
	}
	// Mean prediction → exactly 1.
	mean := []float64{3, 3, 3, 3, 3}
	one, err := NMSE(mean, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one-1) > 1e-12 {
		t.Fatalf("mean-predictor NMSE = %v, want 1", one)
	}
	// Zero-variance targets are undefined.
	if _, err := NMSE([]float64{1, 1}, []float64{2, 2}); err == nil {
		t.Fatal("zero-variance NMSE accepted")
	}
}

func TestGalvanError(t *testing.T) {
	pred := []float64{1, 2, 3}
	want := []float64{0, 0, 0}
	// Σd² = 14, N = 2, τ = 1 → 14 / (2*(2+1)) = 7/3.
	got, err := GalvanError(pred, want, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-14.0/6.0) > 1e-12 {
		t.Fatalf("GalvanError = %v, want %v", got, 14.0/6.0)
	}
}

func TestPropertyRMSENonNegativeAndZeroIffEqual(t *testing.T) {
	f := func(a []float64) bool {
		xs := make([]float64, 0, len(a))
		for _, v := range a {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		r, err := RMSE(xs, xs)
		return err == nil && r == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMAELeqRMSE(t *testing.T) {
	// For any sample, MAE <= RMSE (Jensen).
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		var p, w []float64
		for i := 0; i < n; i++ {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				continue
			}
			if math.Abs(a[i]) > 1e100 || math.Abs(b[i]) > 1e100 {
				continue
			}
			p = append(p, a[i])
			w = append(w, b[i])
		}
		if len(p) == 0 {
			return true
		}
		mae, err1 := MAE(p, w)
		rmse, err2 := RMSE(p, w)
		if err1 != nil || err2 != nil {
			return false
		}
		return mae <= rmse+1e-9*(1+rmse)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
