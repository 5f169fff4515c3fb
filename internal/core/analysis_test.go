package core

import (
	"context"

	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/series"
)

// analysisFixture: two rules over a 1-D dataset with known matches.
func analysisFixture(t *testing.T) (*RuleSet, *series.Dataset) {
	t.Helper()
	ds := &series.Dataset{
		Inputs:  [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}},
		Targets: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		D:       1, Horizon: 1,
	}
	mk := func(lo, hi float64) *Rule {
		r := NewRule([]Interval{NewInterval(lo, hi)})
		r.Fit = &linalg.LinearFit{Coef: []float64{1}, Intercept: 0}
		r.Fitness = 1
		return r
	}
	rs := NewRuleSet(1)
	rs.Add(mk(1, 5), mk(4, 8), mk(100, 200)) // third rule is dead
	return rs, ds
}

func TestAnalyzeCountsAndCoverage(t *testing.T) {
	rs, ds := analysisFixture(t)
	a := rs.Analyze(ds)
	if a.Rules != 3 || a.Patterns != 10 {
		t.Fatalf("shape: %+v", a)
	}
	// Rules cover 1..8 → 8/10 coverage.
	if math.Abs(a.Coverage-0.8) > 1e-12 {
		t.Fatalf("coverage %v, want 0.8", a.Coverage)
	}
	if a.DeadRules != 1 {
		t.Fatalf("dead rules %d, want 1", a.DeadRules)
	}
	// Patterns 4 and 5 are matched by both live rules.
	if a.MaxRulesPerHit != 2 {
		t.Fatalf("max rules per hit %d, want 2", a.MaxRulesPerHit)
	}
	// 5 + 5 matches over 8 covered patterns.
	if math.Abs(a.MeanRulesPerHit-10.0/8.0) > 1e-12 {
		t.Fatalf("mean rules per hit %v", a.MeanRulesPerHit)
	}
	if a.PerRuleMatches[0] != 5 || a.PerRuleMatches[1] != 5 || a.PerRuleMatches[2] != 0 {
		t.Fatalf("per-rule matches %v", a.PerRuleMatches)
	}
	if a.MeanSpecificity != 1 {
		t.Fatalf("specificity %v (no wildcards used)", a.MeanSpecificity)
	}
	if !strings.Contains(a.String(), "coverage") {
		t.Fatal("report missing coverage line")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	rs := NewRuleSet(1)
	ds := &series.Dataset{D: 1, Horizon: 1}
	a := rs.Analyze(ds)
	if a.Coverage != 0 || a.Rules != 0 {
		t.Fatalf("empty analysis %+v", a)
	}
}

func TestGini(t *testing.T) {
	if g := gini([]int{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Fatalf("equal shares Gini %v, want 0", g)
	}
	// All mass on one rule: Gini → (n-1)/n.
	if g := gini([]int{0, 0, 0, 12}); math.Abs(g-0.75) > 1e-12 {
		t.Fatalf("concentrated Gini %v, want 0.75", g)
	}
	if g := gini(nil); g != 0 {
		t.Fatalf("empty Gini %v", g)
	}
	if g := gini([]int{0, 0}); g != 0 {
		t.Fatalf("all-zero Gini %v", g)
	}
}

func TestOverlapMatrixSymmetric(t *testing.T) {
	rs, _ := analysisFixture(t)
	m := rs.OverlapMatrix()
	if len(m) != 3 {
		t.Fatalf("matrix size %d", len(m))
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Fatalf("asymmetric at %d,%d", i, j)
			}
			if m[i][j] < 0 || m[i][j] > 1 {
				t.Fatalf("distance %v outside [0,1]", m[i][j])
			}
		}
	}
	// Rules [1,5] and [100,200] are disjoint → distance 1.
	if m[0][2] != 1 {
		t.Fatalf("disjoint distance %v, want 1", m[0][2])
	}
}

func TestMeanPairwiseDistance(t *testing.T) {
	rs, _ := analysisFixture(t)
	d := rs.MeanPairwiseDistance()
	if d <= 0 || d > 1 {
		t.Fatalf("mean pairwise distance %v", d)
	}
	single := NewRuleSet(1)
	single.Add(rs.Rules[0])
	if single.MeanPairwiseDistance() != 0 {
		t.Fatal("single-rule diversity should be 0")
	}
}

func TestAnalyzeOnEvolvedSystem(t *testing.T) {
	// Integration: analysis of a real evolved system is self-consistent
	// with RuleSet.Coverage.
	ds := sineDataset(t, 400, 3)
	ex, err := NewExecution(context.Background(), quickConfig(3, 77), ds)
	if err != nil {
		t.Fatal(err)
	}
	ex.Run(context.Background(), 0, nil)
	rs := NewRuleSet(3)
	rs.Add(ex.ValidRules()...)
	a := rs.Analyze(ds)
	if math.Abs(a.Coverage-rs.Coverage(ds)) > 1e-12 {
		t.Fatalf("Analyze coverage %v != RuleSet.Coverage %v", a.Coverage, rs.Coverage(ds))
	}
	if a.MeanSpecificity < 0 || a.MeanSpecificity > 1 {
		t.Fatalf("specificity %v", a.MeanSpecificity)
	}
}
