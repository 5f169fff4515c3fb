package core

import (
	"context"

	"testing"

	"repro/internal/linalg"
)

func fittedRule(ivs []Interval, errVal float64) *Rule {
	r := NewRule(ivs)
	r.Fit = &linalg.LinearFit{Coef: make([]float64, len(ivs)), Intercept: 1}
	r.Error = errVal
	r.Fitness = 1
	return r
}

func TestSubsumesContainment(t *testing.T) {
	general := fittedRule([]Interval{NewInterval(0, 10), NewInterval(0, 10)}, 0.5)
	specific := fittedRule([]Interval{NewInterval(2, 5), NewInterval(3, 4)}, 0.9)
	if !Subsumes(general, specific) {
		t.Fatal("containing rule with lower error must subsume")
	}
	if Subsumes(specific, general) {
		t.Fatal("contained rule must not subsume its container")
	}
}

func TestSubsumesErrorGate(t *testing.T) {
	general := fittedRule([]Interval{NewInterval(0, 10)}, 0.9)
	specific := fittedRule([]Interval{NewInterval(2, 5)}, 0.5)
	if Subsumes(general, specific) {
		t.Fatal("higher-error rule must not subsume")
	}
}

func TestSubsumesWildcards(t *testing.T) {
	wild := fittedRule([]Interval{Wild()}, 0.1)
	bounded := fittedRule([]Interval{NewInterval(0, 1)}, 0.2)
	if !Subsumes(wild, bounded) {
		t.Fatal("wildcard gene contains any bounded gene")
	}
	if Subsumes(bounded, wild) {
		t.Fatal("bounded gene cannot contain a wildcard")
	}
}

func TestSubsumesRequiresFit(t *testing.T) {
	fitted := fittedRule([]Interval{NewInterval(0, 10)}, 0.1)
	unfitted := NewRule([]Interval{NewInterval(2, 5)})
	if Subsumes(fitted, unfitted) || Subsumes(unfitted, fitted) {
		t.Fatal("unfitted rules must not participate in subsumption")
	}
}

func TestSubsumesIdenticalRules(t *testing.T) {
	a := fittedRule([]Interval{NewInterval(0, 10)}, 0.5)
	b := fittedRule([]Interval{NewInterval(0, 10)}, 0.5)
	if !Subsumes(a, b) || !Subsumes(b, a) {
		t.Fatal("identical rules subsume each other")
	}
}

func TestCompactRemovesRedundancy(t *testing.T) {
	rs := NewRuleSet(1)
	general := fittedRule([]Interval{NewInterval(0, 10)}, 0.3)
	inside1 := fittedRule([]Interval{NewInterval(1, 3)}, 0.5)
	inside2 := fittedRule([]Interval{NewInterval(5, 9)}, 0.4)
	disjoint := fittedRule([]Interval{NewInterval(20, 30)}, 0.9)
	rs.Add(general, inside1, inside2, disjoint)
	removed := rs.Compact()
	if removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	if rs.Len() != 2 {
		t.Fatalf("kept %d rules", rs.Len())
	}
	if rs.Rules[0] != general || rs.Rules[1] != disjoint {
		t.Fatal("Compact kept the wrong rules")
	}
}

func TestCompactKeepsFirstOfIdenticalPair(t *testing.T) {
	rs := NewRuleSet(1)
	a := fittedRule([]Interval{NewInterval(0, 10)}, 0.5)
	b := fittedRule([]Interval{NewInterval(0, 10)}, 0.5)
	rs.Add(a, b)
	removed := rs.Compact()
	if removed != 1 || rs.Len() != 1 {
		t.Fatalf("removed=%d len=%d", removed, rs.Len())
	}
	if rs.Rules[0] != a {
		t.Fatal("Compact kept the later duplicate")
	}
}

func TestCompactPreservesCoverage(t *testing.T) {
	// Integration: compacting a real evolved system must not reduce
	// its training coverage (subsumed rules are covered by their
	// subsumer by construction).
	ds := sineDataset(t, 400, 3)
	cfg := quickConfig(3, 91)
	cfg.Generations = 1500
	ex, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	ex.Run(context.Background(), 0, nil)
	rs := NewRuleSet(3)
	rs.Add(ex.ValidRules()...)
	before := rs.Coverage(ds)
	removed := rs.Compact()
	after := rs.Coverage(ds)
	if after < before-1e-12 {
		t.Fatalf("Compact reduced coverage: %v -> %v (removed %d)", before, after, removed)
	}
}

func TestCompactEmptySet(t *testing.T) {
	rs := NewRuleSet(2)
	if removed := rs.Compact(); removed != 0 {
		t.Fatalf("empty Compact removed %d", removed)
	}
}

// Subsumption must be sound: if a subsumes b, then a matches every
// pattern b matches (checked against a real dataset).
func TestSubsumptionSoundness(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	ex, err := NewExecution(context.Background(), quickConfig(3, 93), ds)
	if err != nil {
		t.Fatal(err)
	}
	ex.Run(context.Background(), 0, nil)
	rules := ex.ValidRules()
	for _, a := range rules {
		for _, b := range rules {
			if a == b || !Subsumes(a, b) {
				continue
			}
			for i, pattern := range ds.Inputs {
				if b.Match(pattern) && !a.Match(pattern) {
					t.Fatalf("subsumer misses pattern %d matched by subsumed rule", i)
				}
			}
		}
	}
}
