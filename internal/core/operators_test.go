package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSelectParentPrefersFit(t *testing.T) {
	pop := []*Rule{
		{Fitness: 0.001},
		{Fitness: 100},
		{Fitness: 0.001},
	}
	src := rng.New(1)
	var sel roulette
	sel.reset(pop)
	wins := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if sel.pick(pop, 3, src) == 1 {
			wins++
		}
	}
	// With 3-round trials over these weights, the fit individual should
	// win essentially always.
	if float64(wins)/trials < 0.99 {
		t.Fatalf("fit individual selected only %d/%d times", wins, trials)
	}
}

func TestSelectParentUniformWhenAllFloor(t *testing.T) {
	pop := []*Rule{{Fitness: 0}, {Fitness: 0}, {Fitness: 0}, {Fitness: 0}}
	src := rng.New(2)
	var sel roulette
	sel.reset(pop)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[sel.pick(pop, 3, src)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("index %d never selected under all-floor fitness", i)
		}
	}
}

// TestRouletteMatchesReference: a prefix-sum draw returns exactly the
// index rng.Roulette returns over the same weights from an identically
// seeded stream, and leaves the stream in the same place — including
// the edge weights rng.Roulette treats specially (NaN, ±Inf, negative,
// ±0, all-zero) and weights whose sum overflows to +Inf.
func TestRouletteMatchesReference(t *testing.T) {
	edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300, 0, math.Copysign(0, -1),
		5e-324, 2.2e-308, math.MaxFloat64, math.MaxFloat64 / 2, 1, 0.5, 1e-12, 1e12}
	gen := rng.New(99)
	var sel roulette
	for trial := 0; trial < 20000; trial++ {
		n := 1 + gen.Intn(12)
		if trial%10 == 0 {
			n = 50 + gen.Intn(100)
		}
		pop := make([]*Rule, n)
		weights := make([]float64, n)
		for i := range pop {
			switch gen.Intn(4) {
			case 0:
				weights[i] = edges[gen.Intn(len(edges))]
			case 1:
				weights[i] = 0
			default:
				weights[i] = gen.Float64() * 10
			}
			pop[i] = &Rule{Fitness: weights[i]}
		}
		seed := int64(trial)
		got, want := rng.New(seed), rng.New(seed)
		sel.reset(pop)
		for d := 0; d < 6; d++ {
			if g, w := sel.draw(got), want.Roulette(weights); g != w {
				t.Fatalf("trial %d draw %d: prefix sums pick %d, rng.Roulette %d over %v", trial, d, g, w, weights)
			}
		}
		if got.Float64() != want.Float64() {
			t.Fatalf("trial %d: streams diverged after the draws", trial)
		}
	}
}

// Property: every crossover gene comes verbatim from one of the
// parents (uniform crossover provenance).
func TestPropertyCrossoverProvenance(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		d := 6
		a := NewRule(make([]Interval, d))
		b := NewRule(make([]Interval, d))
		for i := 0; i < d; i++ {
			a.Cond[i] = NewInterval(float64(i), float64(i+1))
			b.Cond[i] = NewInterval(float64(i+100), float64(i+101))
		}
		a.Prediction, b.Prediction = 10, 20
		child := crossover(a, b, src)
		if len(child.Cond) != d {
			return false
		}
		for i, g := range child.Cond {
			if g != a.Cond[i] && g != b.Cond[i] {
				return false
			}
		}
		// The paper: offspring does not inherit p/e — our prior is the
		// parents' midpoint and the error is unset (+Inf).
		return child.Prediction == 15 && math.IsInf(child.Error, 1) && child.Fit == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossoverMixesParents(t *testing.T) {
	src := rng.New(3)
	d := 16
	a := NewRule(make([]Interval, d))
	b := NewRule(make([]Interval, d))
	for i := 0; i < d; i++ {
		a.Cond[i] = NewInterval(0, 1)
		b.Cond[i] = NewInterval(2, 3)
	}
	child := crossover(a, b, src)
	fromA, fromB := 0, 0
	for i, g := range child.Cond {
		switch g {
		case a.Cond[i]:
			fromA++
		case b.Cond[i]:
			fromB++
		}
	}
	if fromA == 0 || fromB == 0 {
		t.Fatalf("no gene mixing: %d from A, %d from B", fromA, fromB)
	}
}

func TestMutatorRespectsRateZero(t *testing.T) {
	src := rng.New(4)
	m := newMutator(0, 0.1, 0.5, []float64{0, 0}, []float64{10, 10})
	r := NewRule([]Interval{NewInterval(1, 2), NewInterval(3, 4)})
	before := append([]Interval(nil), r.Cond...)
	for i := 0; i < 100; i++ {
		m.mutate(r, src)
	}
	for i := range before {
		if r.Cond[i] != before[i] {
			t.Fatal("rate-0 mutator changed genes")
		}
	}
}

func TestMutatorChangesGenesAndClamps(t *testing.T) {
	src := rng.New(5)
	lo := []float64{0, 0, 0}
	hi := []float64{10, 10, 10}
	m := newMutator(1.0, 0.3, 0.0, lo, hi)
	changed := false
	for trial := 0; trial < 50; trial++ {
		r := NewRule([]Interval{NewInterval(4, 6), NewInterval(0, 10), NewInterval(9, 10)})
		orig := append([]Interval(nil), r.Cond...)
		m.mutate(r, src)
		for j, g := range r.Cond {
			if g != orig[j] {
				changed = true
			}
			if g.Wildcard {
				t.Fatal("wildcard appeared with WildcardRate=0")
			}
			if g.Lo < lo[j]-1e-12 || g.Hi > hi[j]+1e-12 || g.Lo > g.Hi {
				t.Fatalf("mutated gene %d out of bounds: %+v", j, g)
			}
		}
	}
	if !changed {
		t.Fatal("rate-1 mutator never changed a gene")
	}
}

func TestMutatorWildcardToggle(t *testing.T) {
	src := rng.New(6)
	m := newMutator(1.0, 0.1, 1.0, []float64{0}, []float64{10})
	r := NewRule([]Interval{NewInterval(2, 3)})
	m.mutate(r, src)
	if !r.Cond[0].Wildcard {
		t.Fatal("WildcardRate=1 did not toggle to wildcard")
	}
	m.mutate(r, src)
	if r.Cond[0].Wildcard {
		t.Fatal("wildcard did not re-materialize")
	}
	g := r.Cond[0]
	if g.Lo < 0 || g.Hi > 10 {
		t.Fatalf("re-materialized gene out of range: %+v", g)
	}
}

func TestRuleDistancePrediction(t *testing.T) {
	a := &Rule{Prediction: 10}
	b := &Rule{Prediction: 13}
	if got := ruleDistance(a, b, DistancePrediction, 100); got != 3 {
		t.Fatalf("prediction distance = %v", got)
	}
}

func TestOverlapDistance(t *testing.T) {
	mk := func(ivs ...Interval) *Rule { return NewRule(ivs) }
	same := overlapDistance(mk(NewInterval(0, 1), NewInterval(2, 3)), mk(NewInterval(0, 1), NewInterval(2, 3)))
	if same != 0 {
		t.Fatalf("identical rules distance %v, want 0", same)
	}
	disjoint := overlapDistance(mk(NewInterval(0, 1)), mk(NewInterval(5, 6)))
	if disjoint != 1 {
		t.Fatalf("disjoint rules distance %v, want 1", disjoint)
	}
	wild := overlapDistance(mk(Wild()), mk(NewInterval(5, 6)))
	if wild != 0 {
		t.Fatalf("wildcard distance %v, want 0 (covers fully)", wild)
	}
	if got := overlapDistance(NewRule(nil), NewRule(nil)); got != 0 {
		t.Fatalf("empty rules distance %v", got)
	}
}

func TestHybridDistanceBounded(t *testing.T) {
	a := &Rule{Prediction: 0, Cond: []Interval{NewInterval(0, 1)}}
	b := &Rule{Prediction: 1e9, Cond: []Interval{NewInterval(5, 6)}}
	got := ruleDistance(a, b, DistanceHybrid, 100)
	if got < 0 || got > 1 {
		t.Fatalf("hybrid distance %v outside [0,1]", got)
	}
	if got != 1 {
		t.Fatalf("max-different rules hybrid distance %v, want 1", got)
	}
}

func TestNearestIndex(t *testing.T) {
	pop := []*Rule{{Prediction: 0}, {Prediction: 50}, {Prediction: 100}}
	cand := &Rule{Prediction: 55}
	if got := nearestIndex(pop, cand, DistancePrediction, 100); got != 1 {
		t.Fatalf("nearestIndex = %d, want 1", got)
	}
}

func TestDistanceKindString(t *testing.T) {
	for _, k := range []DistanceKind{DistancePrediction, DistanceOverlap, DistanceHybrid, DistanceKind(99)} {
		if len(k.String()) == 0 {
			t.Fatalf("empty String for kind %d", int(k))
		}
	}
}
