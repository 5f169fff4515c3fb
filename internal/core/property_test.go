package core

import (
	"bytes"
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/rng"
)

// Property: serialization round-trips arbitrary rule sets — the
// reloaded system predicts identically on random patterns.
func TestPropertySerializationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		d := 1 + src.Intn(6)
		rs := NewRuleSet(d)
		nRules := 1 + src.Intn(8)
		for r := 0; r < nRules; r++ {
			cond := make([]Interval, d)
			for j := range cond {
				if src.Bool(0.2) {
					cond[j] = Wild()
				} else {
					cond[j] = NewInterval(src.Uniform(-5, 5), src.Uniform(-5, 5))
				}
			}
			rule := NewRule(cond)
			rule.Prediction = src.Uniform(-3, 3)
			rule.Matches = src.Intn(100)
			rule.Fitness = src.Uniform(0, 10)
			if src.Bool(0.8) {
				coef := make([]float64, d)
				for j := range coef {
					coef[j] = src.Uniform(-2, 2)
				}
				rule.Fit = &linalg.LinearFit{Coef: coef, Intercept: src.Uniform(-1, 1)}
				rule.Error = src.Uniform(0, 2)
			}
			rs.Add(rule)
		}

		var buf bytes.Buffer
		if err := rs.WriteJSON(&buf); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			pattern := make([]float64, d)
			for j := range pattern {
				pattern[j] = src.Uniform(-6, 6)
			}
			v1, ok1 := rs.Predict(pattern)
			v2, ok2 := got.Predict(pattern)
			if ok1 != ok2 {
				return false
			}
			if ok1 && math.Abs(v1-v2) > 1e-12*(1+math.Abs(v1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the paper's fitness is monotone — holding error fixed,
// more matches can only raise it; holding matches fixed, lower error
// can only raise it (within the valid gate).
func TestPropertyFitnessMonotone(t *testing.T) {
	const emax = 1.0
	fitness := func(matches int, errVal float64) float64 {
		if matches > 1 && errVal < emax {
			return float64(matches)*emax - errVal
		}
		return 0 // f_min
	}
	f := func(m1Raw, m2Raw uint8, e1Raw, e2Raw float64) bool {
		m1 := 2 + int(m1Raw)%100
		m2 := m1 + 1 + int(m2Raw)%50
		e1 := math.Mod(math.Abs(e1Raw), emax*0.999)
		e2 := e1 * math.Mod(math.Abs(e2Raw), 1) // e2 <= e1
		if math.IsNaN(e1) || math.IsNaN(e2) {
			return true
		}
		// More matches, same error → fitter.
		if fitness(m2, e1) <= fitness(m1, e1) {
			return false
		}
		// Same matches, lower-or-equal error → at least as fit.
		return fitness(m1, e2) >= fitness(m1, e1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// indexSizes are dataset sizes around the rank index's word (64) and
// bucket (step = max(8, n/64)) boundaries, plus the Venice-like sizes
// 466 and 2,988.
var indexSizes = []int{1, 7, 63, 64, 65, 127, 129, 466, 2988}

// Property: the indexed match engine is extensionally equal to the
// naive linear scan — identical indices, identical order, nil for
// empty — for random datasets (uniform, or integer-valued and
// tie-heavy), the sizes in indexSizes plus random ones, any dimension,
// and rules with wildcards, unselective, inverted, ±Inf and NaN bounds
// and all-wildcard conditions — through the evaluator's own
// MatchIndex backend (MatchIndices, and MatchBatch whole and cancelled
// mid-batch) and lookupInto. One scratch is reused across every index,
// whatever its size.
func TestPropertyIndexedMatchEquivalence(t *testing.T) {
	var sc matchScratch
	var reuse []int
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 10 + src.Intn(200)
		if src.Bool(0.5) {
			n = indexSizes[src.Intn(len(indexSizes))]
		}
		ties := src.Bool(0.5)
		d := 1 + src.Intn(5)
		v := make([]float64, n+d)
		for i := range v {
			if ties {
				v[i] = float64(src.Intn(5) - 2)
			} else {
				v[i] = src.Uniform(-2, 2)
			}
		}
		ds := datasetFromValues(v, d, 1)
		if ds == nil || ds.Len() != n {
			return false
		}
		ev := NewEvaluator(ds, 0.8, -5, 1e-8, 1, EvalOptions{})
		ix := ev.Backend().(*MatchIndex)
		var rules []*Rule
		var wants [][]int
		bound := func() float64 {
			if ties {
				return float64(src.Intn(7) - 3) // lands on tied values exactly
			}
			return src.Uniform(-2.5, 2.5)
		}
		for trial := 0; trial < 10; trial++ {
			cond := make([]Interval, d)
			for j := range cond {
				switch {
				case trial == 0 || src.Bool(0.25):
					cond[j] = Wild() // trial 0 is the all-wildcard rule
				case src.Bool(0.15):
					// Deliberately unselective: spans the whole data range.
					cond[j] = NewInterval(-3, 3)
				case src.Bool(0.1):
					// Genuinely inverted bounds (Lo > Hi), bypassing
					// NewInterval's swap — reachable via ReadJSON or
					// direct construction; must match nothing, not panic.
					cond[j] = Interval{Lo: 1, Hi: -1}
				case src.Bool(0.1):
					cond[j] = Interval{Lo: math.Inf(-1), Hi: bound()}
				case src.Bool(0.1):
					cond[j] = Interval{Lo: bound(), Hi: math.Inf(1)}
				case src.Bool(0.05):
					cond[j] = Interval{Lo: math.NaN(), Hi: bound()}
				default:
					cond[j] = NewInterval(bound(), bound())
				}
			}
			r := NewRule(cond)
			naive := ev.MatchIndicesScan(r)
			if !intSlicesIdentical(ix.MatchIndices(r), naive) {
				return false
			}
			// AppendMatches keeps what dst held, NaN fallback included.
			if !intSlicesEqual(ix.AppendMatches([]int{-1}, r), append([]int{-1}, naive...)) {
				return false
			}
			rules, wants = append(rules, r), append(wants, naive)
			if got, ok := ix.lookupInto(reuse[:0], r, &sc); ok {
				if !intSlicesEqual(got, naive) {
					return false
				}
				reuse = got
			}
		}
		return matchBatchAgrees(ix, rules, wants, src.Intn(len(rules)+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache hit reproduces the uncached evaluation
// bit-for-bit — evaluating a fresh rule with the same conditional
// part yields identical Matches, Error, Fitness, Prediction and
// consequent, and the consequent storage is never shared.
func TestPropertyEvalCacheBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 30 + src.Intn(100)
		v := make([]float64, n)
		for i := range v {
			v[i] = src.Uniform(-2, 2)
		}
		ds := datasetFromValues(v, 3, 1)
		if ds == nil {
			return true
		}
		ev := NewEvaluator(ds, 0.8, -5, 1e-8, 1, EvalOptions{})
		cond := make([]Interval, 3)
		for j := range cond {
			if src.Bool(0.3) {
				cond[j] = Wild()
			} else {
				cond[j] = NewInterval(src.Uniform(-2, 2), src.Uniform(-2, 2))
			}
		}
		a := NewRule(cond)
		ev.Evaluate(context.Background(), a) // miss: computes and seeds the cache
		b := NewRule(append([]Interval(nil), cond...))
		ev.Evaluate(context.Background(), b) // hit: must replay a's result exactly
		if a.Matches != b.Matches || a.Fitness != b.Fitness {
			return false
		}
		if a.Error != b.Error && !(math.IsInf(a.Error, 1) && math.IsInf(b.Error, 1)) {
			return false
		}
		if (a.Fit == nil) != (b.Fit == nil) {
			return false
		}
		if a.Fit != nil {
			if a.Fit == b.Fit || a.Prediction != b.Prediction {
				return false
			}
			if a.Fit.Intercept != b.Fit.Intercept {
				return false
			}
			for j := range a.Fit.Coef {
				if a.Fit.Coef[j] != b.Fit.Coef[j] {
					return false
				}
			}
		}
		hits, _ := ev.CacheStats()
		return hits >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: evaluation on a dataset always yields internally
// consistent rules: Matches >= 0; valid fitness implies Matches > 1
// and Error < EMAX; rules with matches carry a consequent.
func TestPropertyEvaluateConsistency(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		// Random small dataset.
		n := 30 + src.Intn(50)
		v := make([]float64, n)
		for i := range v {
			v[i] = src.Uniform(-2, 2)
		}
		ds := datasetFromValues(v, 3, 1)
		if ds == nil {
			return true
		}
		ev := NewEvaluator(ds, 0.8, -5, 1e-8, 1, EvalOptions{})
		// Random rule.
		cond := make([]Interval, 3)
		for j := range cond {
			if src.Bool(0.3) {
				cond[j] = Wild()
			} else {
				cond[j] = NewInterval(src.Uniform(-2, 2), src.Uniform(-2, 2))
			}
		}
		r := NewRule(cond)
		ev.Evaluate(context.Background(), r)
		if r.Matches < 0 {
			return false
		}
		if r.Matches > 0 && !r.Fitted() {
			return false
		}
		if r.Fitness > -5 { // above the floor: the gate must hold
			if r.Matches <= 1 || r.Error >= 0.8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the index lookup is extensionally equal to the naive scan
// under the degenerate inputs it must not mishandle — NaN pattern
// values (which disable the index entirely), NaN gene bounds
// (unconstraining, and unusable for rank ranges), and magnitudes at
// the edges of the float range (values and bounds near ±1e308, and
// subnormals). Identity is exact: same indices, same order, nil for
// empty — for the evaluator's backend, the index's own MatchIndices
// and MatchBatch (whole and cancelled mid-batch), and lookupInto.
func TestPropertyIndexNaNEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 10 + src.Intn(150)
		withNaN := src.Bool(0.5)
		v := make([]float64, n)
		for i := range v {
			switch {
			case withNaN && src.Bool(0.1):
				v[i] = math.NaN()
			case src.Bool(0.1):
				v[i] = src.Uniform(-2, 2) * 1e308
			case src.Bool(0.1):
				v[i] = src.Uniform(-2, 2) * 1e-310 // subnormal
			default:
				v[i] = src.Uniform(-2, 2)
			}
		}
		d := 1 + src.Intn(5)
		ds := datasetFromValues(v, d, 1)
		if ds == nil {
			return true
		}
		ix := NewMatchIndex(ds)
		ev := NewEvaluator(ds, 0.8, -5, 1e-8, 1, EvalOptions{})
		sc := matchScratchPool.Get().(*matchScratch)
		defer matchScratchPool.Put(sc)
		var reuse []int
		var rules []*Rule
		var wants [][]int
		for trial := 0; trial < 12; trial++ {
			cond := make([]Interval, d)
			for j := range cond {
				switch {
				case src.Bool(0.2):
					cond[j] = Wild()
				case src.Bool(0.1):
					cond[j] = Interval{Lo: math.NaN(), Hi: src.Uniform(-2, 2)}
				case src.Bool(0.1):
					cond[j] = Interval{Lo: src.Uniform(-2, 2), Hi: math.NaN()}
				case src.Bool(0.1):
					cond[j] = NewInterval(src.Uniform(-2, 2)*1e308, src.Uniform(-2, 2)*1e308)
				default:
					cond[j] = NewInterval(src.Uniform(-2.5, 2.5), src.Uniform(-2.5, 2.5))
				}
			}
			r := NewRule(cond)
			naive := ev.MatchIndicesScan(r)
			if !intSlicesIdentical(ev.Backend().MatchIndices(r), naive) ||
				!intSlicesIdentical(ix.MatchIndices(r), naive) {
				return false
			}
			rules, wants = append(rules, r), append(wants, naive)
			// The scratch variants must agree while reusing dirty
			// buffers across rules (sc and reuse carry state between
			// trials on purpose). Into appends to caller storage, so
			// only values are compared, not nil-ness.
			if got, ok := ix.lookupInto(reuse[:0], r, sc); ok {
				if !intSlicesEqual(got, naive) {
					return false
				}
				reuse = got
			}
		}
		return matchBatchAgrees(ix, rules, wants, src.Intn(len(rules)+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: lookupInto over a dirty pooled scratch and a reused
// destination reproduces its answer over fresh scratch exactly on
// clean data, for every rule and for every one-gene restriction of it
// (each gene's rank range taken alone).
func TestPropertyLookupScratchEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 20 + src.Intn(100)
		v := make([]float64, n)
		for i := range v {
			v[i] = src.Uniform(-2, 2)
		}
		d := 2 + src.Intn(4)
		ds := datasetFromValues(v, d, 1)
		if ds == nil {
			return true
		}
		ix := NewMatchIndex(ds)
		sc := matchScratchPool.Get().(*matchScratch)
		defer matchScratchPool.Put(sc)
		var reuse []int
		check := func(r *Rule) bool {
			want, ok := ix.lookupInto(nil, r, new(matchScratch))
			if !ok {
				return false // clean data, finite bounds: always answerable
			}
			got, _ := ix.lookupInto(reuse[:0], r, sc)
			reuse = got
			return intSlicesEqual(got, want)
		}
		for trial := 0; trial < 10; trial++ {
			cond := make([]Interval, d)
			for j := range cond {
				if src.Bool(0.25) {
					cond[j] = Wild()
				} else {
					cond[j] = NewInterval(src.Uniform(-2.5, 2.5), src.Uniform(-2.5, 2.5))
				}
			}
			if !check(NewRule(cond)) {
				return false
			}
			for j := 0; j < d; j++ {
				if cond[j].Wildcard {
					continue
				}
				one := make([]Interval, d)
				for k := range one {
					one[k] = Wild()
				}
				one[j] = cond[j]
				if !check(NewRule(one)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
