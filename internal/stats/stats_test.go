package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{7}); got != 0 {
		t.Fatalf("Variance single = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %v,%v", min, max)
	}
}

func TestMinMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(nil) did not panic")
		}
	}()
	MinMax(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("interpolated quantile = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile sorted its input in place")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantile(q=%v) did not panic", q)
				}
			}()
			Quantile([]float64{1}, q)
		}()
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("Median = %v", got)
	}
}

func TestAutocorrelation(t *testing.T) {
	// Perfect period-2 alternation: lag-1 ~ -1, lag-2 ~ +1.
	xs := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	if got := Autocorrelation(xs, 0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("lag-0 autocorr = %v", got)
	}
	if got := Autocorrelation(xs, 1); got > -0.8 {
		t.Fatalf("lag-1 autocorr = %v, want strongly negative", got)
	}
	if got := Autocorrelation(xs, 2); got < 0.7 {
		t.Fatalf("lag-2 autocorr = %v, want strongly positive", got)
	}
	if got := Autocorrelation([]float64{1, 1, 1}, 1); got != 0 {
		t.Fatalf("constant series autocorr = %v, want 0", got)
	}
	if got := Autocorrelation(xs, 99); got != 0 {
		t.Fatalf("overlong lag = %v, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if len(s.String()) == 0 {
		t.Fatal("empty Summary.String()")
	}
}

func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := Quantile(xs, 0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := Quantile(xs, q)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
