package core

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// identityRule matches everything and predicts the last window value
// plus delta (so iterated forecasts form an arithmetic sequence).
func identityRule(d int, delta float64) *Rule {
	cond := make([]Interval, d)
	for i := range cond {
		cond[i] = NewInterval(-1e12, 1e12)
	}
	coef := make([]float64, d)
	coef[d-1] = 1
	r := NewRule(cond)
	r.Fit = &linalg.LinearFit{Coef: coef, Intercept: delta}
	r.Error = 0
	r.Fitness = 1
	return r
}

func TestIteratedForecastArithmetic(t *testing.T) {
	rs := NewRuleSet(3)
	rs.Add(identityRule(3, 2))
	out, done := rs.IteratedForecast([]float64{0, 0, 10}, 4)
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	want := []float64{12, 14, 16, 18}
	for i, v := range want {
		if math.Abs(out[i]-v) > 1e-12 {
			t.Fatalf("trajectory %v, want %v", out, want)
		}
	}
}

func TestIteratedForecastUsesWindowTail(t *testing.T) {
	rs := NewRuleSet(2)
	rs.Add(identityRule(2, 1))
	// Window longer than D: only the last 2 values matter.
	out, done := rs.IteratedForecast([]float64{99, 99, 99, 5, 7}, 1)
	if done != 1 || out[0] != 8 {
		t.Fatalf("out=%v done=%d, want [8] 1", out, done)
	}
}

func TestIteratedForecastAbstention(t *testing.T) {
	rs := NewRuleSet(1)
	// Rule only matches values below 10; prediction = value + 5.
	r := NewRule([]Interval{NewInterval(-100, 10)})
	r.Fit = &linalg.LinearFit{Coef: []float64{1}, Intercept: 5}
	r.Error = 0
	r.Fitness = 1
	rs.Add(r)
	// 4 → 9 → 14 (14 > 10: abstain on the third step).
	out, done := rs.IteratedForecast([]float64{4}, 5)
	if done != 2 {
		t.Fatalf("done = %d, want 2 (abstained once forecast left the rule's region)", done)
	}
	if len(out) != 2 || out[0] != 9 || out[1] != 14 {
		t.Fatalf("out = %v", out)
	}
}

func TestIteratedForecastDegenerateInputs(t *testing.T) {
	rs := NewRuleSet(3)
	rs.Add(identityRule(3, 1))
	if out, done := rs.IteratedForecast([]float64{1, 2}, 3); out != nil || done != 0 {
		t.Fatal("short window accepted")
	}
	if out, done := rs.IteratedForecast([]float64{1, 2, 3}, 0); out != nil || done != 0 {
		t.Fatal("zero steps accepted")
	}
}
