package core

import (
	"math"
	"sort"

	"repro/internal/series"
)

// RuleSet is the final forecasting system: the union of the valid
// rules produced by one or more executions (§3.4 of the paper). For a
// new pattern, every matching rule produces an output and the system
// answers with their mean; if no rule matches, the system abstains.
type RuleSet struct {
	Rules []*Rule
	D     int

	// Optional output clamp: when enabled, each rule's output is
	// limited to [ClampLo, ClampHi] before averaging. A rule's linear
	// consequent can extrapolate arbitrarily far outside the region it
	// was fitted on; clamping to (slightly beyond) the training output
	// span removes those unsupported excursions without touching
	// in-range behaviour.
	Clamped bool
	ClampLo float64
	ClampHi float64
}

// NewRuleSet returns an empty rule set for patterns of width d.
func NewRuleSet(d int) *RuleSet { return &RuleSet{D: d} }

// SetClamp enables output clamping to [lo,hi].
func (rs *RuleSet) SetClamp(lo, hi float64) {
	if hi < lo {
		lo, hi = hi, lo
	}
	rs.Clamped, rs.ClampLo, rs.ClampHi = true, lo, hi
}

// clampOut applies the configured clamp to one rule output.
func (rs *RuleSet) clampOut(v float64) float64 {
	if !rs.Clamped {
		return v
	}
	if v < rs.ClampLo {
		return rs.ClampLo
	}
	if v > rs.ClampHi {
		return rs.ClampHi
	}
	return v
}

// Add appends rules (e.g. the valid rules of one execution).
func (rs *RuleSet) Add(rules ...*Rule) { rs.Rules = append(rs.Rules, rules...) }

// Len returns the number of rules in the system.
func (rs *RuleSet) Len() int { return len(rs.Rules) }

// Predict returns the system output for the pattern and whether any
// rule matched. The output is the mean of the matching rules'
// regression outputs, per §3.4.
func (rs *RuleSet) Predict(pattern []float64) (float64, bool) {
	sum := 0.0
	n := 0
	for _, r := range rs.Rules {
		if !r.Fitted() || !r.Match(pattern) {
			continue
		}
		sum += rs.clampOut(r.Output(pattern))
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// PredictWeighted is an extension of §3.4: matching rules are averaged
// with weight 1/(e_R + eps) so tighter rules dominate. The paper uses
// the unweighted mean; this variant exists for the ablation bench.
func (rs *RuleSet) PredictWeighted(pattern []float64) (float64, bool) {
	const eps = 1e-9
	sum, wsum := 0.0, 0.0
	for _, r := range rs.Rules {
		if !r.Fitted() || !r.Match(pattern) {
			continue
		}
		w := 1 / (r.Error + eps)
		if math.IsInf(w, 0) || math.IsNaN(w) {
			continue
		}
		sum += w * rs.clampOut(r.Output(pattern))
		wsum += w
	}
	if wsum == 0 {
		return 0, false
	}
	return sum / wsum, true
}

// PredictDataset predicts every pattern of the dataset, returning the
// predictions and the coverage mask (true where at least one rule
// matched). Uncovered entries hold 0.
func (rs *RuleSet) PredictDataset(ds *series.Dataset) (pred []float64, mask []bool) {
	pred = make([]float64, ds.Len())
	mask = make([]bool, ds.Len())
	for i, pattern := range ds.Inputs {
		if v, ok := rs.Predict(pattern); ok {
			pred[i], mask[i] = v, true
		}
	}
	return pred, mask
}

// Coverage returns the fraction of dataset patterns matched by at
// least one rule — the paper's "percentage of prediction".
func (rs *RuleSet) Coverage(ds *series.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	n := 0
	for _, pattern := range ds.Inputs {
		for _, r := range rs.Rules {
			if r.Fitted() && r.Match(pattern) {
				n++
				break
			}
		}
	}
	return float64(n) / float64(ds.Len())
}

// SortByFitness orders rules by descending fitness (stable for equal
// fitness by ascending error), convenient for display and for keeping
// the top-k.
func (rs *RuleSet) SortByFitness() {
	sort.SliceStable(rs.Rules, func(i, j int) bool {
		if rs.Rules[i].Fitness != rs.Rules[j].Fitness {
			return rs.Rules[i].Fitness > rs.Rules[j].Fitness
		}
		return rs.Rules[i].Error < rs.Rules[j].Error
	})
}
