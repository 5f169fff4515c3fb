package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE = %v, want 10", got)
	}
	// Zero targets skipped.
	got, err = MAPE([]float64{5, 110}, []float64{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE with zero target = %v", got)
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err == nil {
		t.Fatal("all-zero targets accepted")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestTheilU(t *testing.T) {
	want := []float64{10, 12, 11}
	prev := []float64{9, 10, 12}
	// A perfect predictor scores 0.
	got, err := TheilU(want, want, prev)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("perfect TheilU = %v", got)
	}
	// Predicting persistence exactly scores 1.
	got, err = TheilU(prev, want, prev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("persistence TheilU = %v, want 1", got)
	}
	if _, err := TheilU(want, want, want); err == nil {
		t.Fatal("exact persistence baseline accepted")
	}
}

func TestR2(t *testing.T) {
	want := []float64{1, 2, 3, 4, 5}
	if got, err := R2(want, want); err != nil || got != 1 {
		t.Fatalf("perfect R2 = %v err %v", got, err)
	}
	mean := []float64{3, 3, 3, 3, 3}
	got, err := R2(mean, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 1e-12 {
		t.Fatalf("mean-predictor R2 = %v, want 0", got)
	}
	if _, err := R2([]float64{1, 2}, []float64{5, 5}); err == nil {
		t.Fatal("constant targets accepted")
	}
}

// Property: R2 = 1 - NMSE for any valid sample (both normalize SSE by
// target variance).
func TestPropertyR2NMSEIdentity(t *testing.T) {
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
			if math.Abs(a[i]) > 1e6 || math.Abs(b[i]) > 1e6 {
				continue
			}
			p = append(p, a[i])
			w = append(w, b[i])
		}
		if len(p) < 2 {
			return true
		}
		r2, err1 := R2(p, w)
		nmse, err2 := NMSE(p, w)
		if err1 != nil || err2 != nil {
			return true // both undefined on constant targets
		}
		return math.Abs((1-r2)-nmse) < 1e-6*(1+math.Abs(nmse))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
