package core

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/series"
)

// constRule builds a fitted rule that matches [lo,hi] on its single
// input and always outputs c.
func constRule(lo, hi, c float64) *Rule {
	r := NewRule([]Interval{NewInterval(lo, hi)})
	r.Fit = &linalg.LinearFit{Coef: []float64{0}, Intercept: c}
	r.Prediction = c
	r.Error = 0.1
	r.Matches = 5
	r.Fitness = 1
	return r
}

func TestPredictMeanOfMatchingRules(t *testing.T) {
	rs := NewRuleSet(1)
	rs.Add(constRule(0, 10, 4), constRule(5, 15, 8), constRule(100, 110, 99))
	// Pattern 7 matches the first two rules → mean(4,8) = 6.
	got, ok := rs.Predict([]float64{7})
	if !ok || got != 6 {
		t.Fatalf("Predict = %v,%v want 6,true", got, ok)
	}
	// Pattern 3 matches only the first rule.
	got, ok = rs.Predict([]float64{3})
	if !ok || got != 4 {
		t.Fatalf("Predict = %v,%v want 4,true", got, ok)
	}
	// Pattern 50 matches nothing: abstain.
	if _, ok := rs.Predict([]float64{50}); ok {
		t.Fatal("abstention expected")
	}
}

func TestPredictSkipsUnfittedRules(t *testing.T) {
	rs := NewRuleSet(1)
	unfitted := NewRule([]Interval{NewInterval(0, 10)})
	rs.Add(unfitted, constRule(0, 10, 3))
	got, ok := rs.Predict([]float64{5})
	if !ok || got != 3 {
		t.Fatalf("Predict = %v,%v", got, ok)
	}
}

func TestPredictWeighted(t *testing.T) {
	rs := NewRuleSet(1)
	tight := constRule(0, 10, 2)
	tight.Error = 0.01
	loose := constRule(0, 10, 10)
	loose.Error = 1.0
	rs.Add(tight, loose)
	got, ok := rs.PredictWeighted([]float64{5})
	if !ok {
		t.Fatal("abstained")
	}
	// Weighted mean must sit far closer to the tight rule's output.
	if math.Abs(got-2) > 1 {
		t.Fatalf("weighted prediction %v not dominated by tight rule", got)
	}
	if _, ok := rs.PredictWeighted([]float64{99}); ok {
		t.Fatal("weighted abstention expected")
	}
}

func TestPredictDatasetAndCoverage(t *testing.T) {
	rs := NewRuleSet(2)
	r := NewRule([]Interval{NewInterval(0, 5), Wild()})
	r.Fit = &linalg.LinearFit{Coef: []float64{1, 0}, Intercept: 0}
	r.Fitness = 1
	rs.Add(r)
	ds := &series.Dataset{
		Inputs:  [][]float64{{1, 9}, {7, 9}, {4, 9}},
		Targets: []float64{1, 7, 4},
		D:       2, Horizon: 1,
	}
	pred, mask := rs.PredictDataset(ds)
	if !mask[0] || mask[1] || !mask[2] {
		t.Fatalf("mask = %v", mask)
	}
	if pred[0] != 1 || pred[2] != 4 {
		t.Fatalf("pred = %v", pred)
	}
	if got := rs.Coverage(ds); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("Coverage = %v", got)
	}
}

func TestCoverageEmptyDataset(t *testing.T) {
	rs := NewRuleSet(1)
	ds := &series.Dataset{D: 1, Horizon: 1}
	if got := rs.Coverage(ds); got != 0 {
		t.Fatalf("empty Coverage = %v", got)
	}
}

func TestSortByFitness(t *testing.T) {
	rs := NewRuleSet(1)
	a := constRule(0, 1, 1)
	a.Fitness, a.Error = 5, 0.5
	b := constRule(0, 1, 2)
	b.Fitness, b.Error = 9, 0.5
	c := constRule(0, 1, 3)
	c.Fitness, c.Error = 5, 0.1
	rs.Add(a, b, c)
	rs.SortByFitness()
	if rs.Rules[0] != b || rs.Rules[1] != c || rs.Rules[2] != a {
		t.Fatal("SortByFitness order wrong (fitness desc, error asc tiebreak)")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rs := NewRuleSet(2)
	r1 := NewRule([]Interval{NewInterval(1, 2), Wild()})
	r1.Fit = &linalg.LinearFit{Coef: []float64{0.5, -1}, Intercept: 3}
	r1.Prediction, r1.Error, r1.Matches, r1.Fitness = 7, 0.25, 12, 30
	r2 := NewRule([]Interval{NewInterval(-1, 0), NewInterval(5, 6)}) // unfitted, Inf error
	r2.Prediction = 2
	rs.Add(r1, r2)

	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.D != 2 || got.Len() != 2 {
		t.Fatalf("round trip shape: D=%d len=%d", got.D, got.Len())
	}
	g1 := got.Rules[0]
	if g1.Fit == nil || g1.Fit.Coef[0] != 0.5 || g1.Fit.Intercept != 3 {
		t.Fatalf("fit lost: %+v", g1.Fit)
	}
	if g1.Prediction != 7 || g1.Error != 0.25 || g1.Matches != 12 || g1.Fitness != 30 {
		t.Fatalf("fields lost: %+v", g1)
	}
	if !got.Rules[0].Cond[1].Wildcard {
		t.Fatal("wildcard lost")
	}
	g2 := got.Rules[1]
	if g2.Fit != nil || !math.IsInf(g2.Error, 1) {
		t.Fatalf("unfitted rule mangled: %+v", g2)
	}
	// Behaviour equivalence.
	p1, ok1 := rs.Predict([]float64{1.5, 99})
	p2, ok2 := got.Predict([]float64{1.5, 99})
	if ok1 != ok2 || p1 != p2 {
		t.Fatalf("round-tripped predictions differ: %v,%v vs %v,%v", p1, ok1, p2, ok2)
	}
}

func TestReadJSONRejectsMalformed(t *testing.T) {
	cases := []string{
		`not json`,
		`{"d":0,"rules":[]}`,
		`{"d":2,"rules":[{"cond":[{"lo":0,"hi":1}],"error":0}]}`,
		`{"d":1,"rules":[{"cond":[{"lo":0,"hi":1}],"error":0,"coef":[1,2]}]}`,
		`{"d":1,"rules":[{"cond":[{"lo":0,"hi":1}],"error":true}]}`,
		`{"d":1,"rules":[{"cond":[{"lo":0,"hi":1}],"error":"oops"}]}`,
		`{"d":1,"rules":[]} trailing`,
		`{"d":1,"rules":[]}{"d":1,"rules":[]}`,
		`{"d":1,"rules":[]}}`,
		`{"d":2,"rules":[{"cond":[{"lo":0,"hi":1},{"lo":2,"hi":1}],"error":0}]}`,
		`{"d":9223372036854775807,"rules":[]}`,
		`{"d":65537,"rules":[]}`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(bytes.NewBufferString(c)); !errors.Is(err, ErrRuleSet) {
			t.Fatalf("malformed case %d: err = %v, want ErrRuleSet", i, err)
		}
	}
	// What WriteJSON emits ends in a newline; trailing whitespace loads.
	if _, err := ReadJSON(bytes.NewBufferString("{\"d\":1,\"rules\":[]}\n \t\n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"d":65536,"rules":[]}`)); err != nil {
		t.Fatalf("the widest window rejected: %v", err)
	}
}

// FuzzReadJSON feeds arbitrary bytes to the rule-set loader. It must
// never panic, and any input it accepts must re-encode stably:
// WriteJSON, then ReadJSON, then WriteJSON again yields the same bytes.
func FuzzReadJSON(f *testing.F) {
	rs := NewRuleSet(2)
	fitted := NewRule([]Interval{NewInterval(-1.5, 2), {Lo: 0, Hi: 0, Wildcard: true}})
	fitted.Fit = &linalg.LinearFit{Coef: []float64{0.25, -3}, Intercept: 1e-9}
	fitted.Prediction, fitted.Error, fitted.Matches, fitted.Fitness = 0.5, 0.125, 7, 2
	rs.Add(fitted, NewRule([]Interval{NewInterval(0, 1), NewInterval(-2, -1)}))
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"d":1,"rules":[{"cond":[{"lo":0,"hi":1}],"error":"inf"}]}`))
	f.Add([]byte(`{"d":1,"rules":[{"cond":[{"lo":0,"hi":1}],"error":null,"coef":[2]}]}`))
	f.Add([]byte(`{"d":3,"rules":[]}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		rs, err := ReadJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := rs.WriteJSON(&first); err != nil {
			t.Fatalf("accepted %q but cannot encode it: %v", in, err)
		}
		again, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rejected its own encoding %q: %v", first.Bytes(), err)
		}
		if err := again.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.json")
	rs := NewRuleSet(1)
	rs.Add(constRule(0, 1, 5))
	if err := rs.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("loaded %d rules", got.Len())
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Property: the system prediction always lies within [min,max] of the
// matching rules' outputs (it is their mean).
func TestPropertyPredictWithinMatchingRange(t *testing.T) {
	f := func(outs []float64, probe float64) bool {
		if len(outs) == 0 || math.IsNaN(probe) {
			return true
		}
		rs := NewRuleSet(1)
		min, max := math.Inf(1), math.Inf(-1)
		for _, o := range outs {
			if math.IsNaN(o) || math.IsInf(o, 0) || math.Abs(o) > 1e9 {
				continue
			}
			rs.Add(constRule(-1e12, 1e12, o))
			if o < min {
				min = o
			}
			if o > max {
				max = o
			}
		}
		if rs.Len() == 0 {
			return true
		}
		got, ok := rs.Predict([]float64{0})
		return ok && got >= min-1e-9 && got <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
