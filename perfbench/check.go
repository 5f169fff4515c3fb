package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/forecast"
	"repro/internal/core"
	"repro/internal/linalg"
)

// digest is the SHA-256 of the rule set's JSON serialization.
func digest(rs *forecast.RuleSet) (string, error) {
	h := sha256.New()
	if err := rs.WriteJSON(h); err != nil {
		return "", fmt.Errorf("serialize rule set: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// chain folds a sequence of rule-set digests (a streaming session's fit
// and rounds) into one.
func chain(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyRules re-derives every fitted rule from the training data it
// was evolved on, independently of the evaluation machinery: a linear
// scan for the matched set, the materialized-design least squares for
// the consequent, and the paper's fitness formula with the default
// EMAX (10% of the target span). It returns the first disagreement.
func verifyRules(rs *forecast.RuleSet, data *forecast.Dataset) error {
	if rs.Len() == 0 {
		return fmt.Errorf("empty rule set")
	}
	cfg := core.Default(data.D)
	lo, hi := data.TargetRange()
	emax := 0.1 * (hi - lo)
	for k, r := range rs.Rules {
		var xs [][]float64
		var ys []float64
		for i, row := range data.Inputs {
			if r.Match(row) {
				xs = append(xs, row)
				ys = append(ys, data.Targets[i])
			}
		}
		if len(xs) != r.Matches {
			return fmt.Errorf("rule %d: matches %d training patterns, records %d", k, len(xs), r.Matches)
		}
		if len(xs) < 2 || r.Fit == nil {
			return fmt.Errorf("rule %d: kept with %d matches and no usable consequent", k, len(xs))
		}
		fit, err := linalg.FitAffine(xs, ys, cfg.Ridge)
		if err != nil {
			return fmt.Errorf("rule %d: reference regression: %w", k, err)
		}
		maxAbs, mean := 0.0, 0.0
		for i, row := range xs {
			p := fit.Predict(row)
			maxAbs = math.Max(maxAbs, math.Abs(ys[i]-p))
			mean += p
		}
		mean /= float64(len(xs))
		fitness := cfg.FMin
		if maxAbs < emax {
			fitness = float64(len(xs))*emax - maxAbs
		}
		scale := hi - lo
		switch {
		case !near(r.Error, maxAbs, scale):
			return fmt.Errorf("rule %d: error %v, reference %v", k, r.Error, maxAbs)
		case !near(r.Prediction, mean, scale):
			return fmt.Errorf("rule %d: prediction %v, reference %v", k, r.Prediction, mean)
		case !near(r.Fitness, fitness, scale*float64(len(xs))):
			return fmt.Errorf("rule %d: fitness %v, reference %v", k, r.Fitness, fitness)
		case r.Fitness <= cfg.FMin:
			return fmt.Errorf("rule %d: kept at the fitness floor", k)
		}
	}
	return nil
}

// near compares two values up to a relative 1e-7 of the given scale.
func near(a, b, scale float64) bool { return math.Abs(a-b) <= 1e-7*scale }

// reference returns the recorded digest for a workload and seed.
func reference(w *workload, seed int64) (string, bool) {
	d, ok := references[w.digestKey][seed]
	return d, ok
}
