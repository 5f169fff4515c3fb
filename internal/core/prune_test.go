package core_test

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/series"
)

// The pruning gate drops an offspring before its regression only when
// it provably cannot enter the population. These tests regress every
// dropped child anyway (through the core.CheckPruned seam) and check
// that it would have lost to its target, and that a run which never
// prunes evolves bit-identically, generation by generation.

// veniceSet windows the Venice training series at D=24 and horizon h,
// with every k-th value replaced by NaN when k > 0, or each value
// rounded to a multiple of q when q > 0 (tie-heavy: repeated rows,
// collinear lags).
func veniceSet(t *testing.T, h, nanEvery int, q float64) *series.Dataset {
	t.Helper()
	train, _, err := series.VenicePaper(1200, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := append([]float64(nil), train.Values...)
	for i := range v {
		switch {
		case nanEvery > 0 && i%nanEvery == nanEvery-1:
			v[i] = math.NaN()
		case q > 0:
			v[i] = q * math.Round(v[i]/q)
		}
	}
	ds, err := series.Window(series.New("venice", v), 24, h)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// pruneCase is one configuration the exactness property runs.
type pruneCase struct {
	name string
	data *series.Dataset
	set  func(c *core.Config, span float64)
	// mayNotPrune: the gate may legitimately drop nothing here. Under
	// crowding by Prediction, NaN inputs or a large ridge leave it only
	// the rare children matching at most one row.
	mayNotPrune bool
}

func pruneCases(t *testing.T) []pruneCase {
	plain, nan := veniceSet(t, 1, 0, 0), veniceSet(t, 1, 97, 0)
	// NaN in the first twelve rows' inputs only: every target stays
	// finite, so ȳ does too, but a regression over those rows
	// predicts NaN.
	nanInputs := veniceSet(t, 1, 0, 0)
	for i := 0; i < 12; i++ {
		nanInputs.Inputs[i] = append([]float64(nil), nanInputs.Inputs[i]...)
		nanInputs.Inputs[i][11-i] = math.NaN()
	}
	// NaN targets make the auto-resolved EMAX NaN, and then no rule is
	// valid; the NaN cases take 10% of the finite targets' span.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range nan.Targets {
		if !math.IsNaN(y) {
			lo, hi = min(lo, y), max(hi, y)
		}
	}
	cases := []pruneCase{
		{"ties", veniceSet(t, 1, 0, 10), nil, false},
		{"nan-inputs", nanInputs, nil, true},
		{"nan", nan, func(c *core.Config, _ float64) { c.EMax = 0.1 * (hi - lo) }, true},
		{"nan-worst", nan, func(c *core.Config, _ float64) {
			c.EMax = 0.1 * (hi - lo)
			c.Replacement = core.ReplaceWorst
		}, false},
		{"mutation-only", plain, func(c *core.Config, _ float64) { c.CrossoverRate, c.MutationRate = 0, 0.5 }, false},
		{"ridge", plain, func(c *core.Config, _ float64) { c.Ridge = 1e-6 }, false}, // the largest the gate trusts
		{"ridge10", plain, func(c *core.Config, _ float64) { c.Ridge = 10 }, true},  // shifts Predictions ~2e-5 of the span
		{"ridge0", plain, func(c *core.Config, _ float64) { c.Ridge = 0 }, false},
		{"ridge0-ties", veniceSet(t, 1, 0, 10), func(c *core.Config, _ float64) { c.Ridge = 0 }, false},
		{"fmin", plain, func(c *core.Config, span float64) {
			c.EMax = 0.1 * span
			c.FMin = 20 * c.EMax
		}, false},
	}
	// Table 1's EMAX schedule: 10%, 20% and 45% of the output span at
	// short, middle and long horizons.
	for _, hf := range []struct {
		h    int
		frac float64
	}{{1, 0.1}, {24, 0.2}, {72, 0.45}} {
		frac := hf.frac
		cases = append(cases, pruneCase{fmt.Sprintf("h%d", hf.h), veniceSet(t, hf.h, 0, 0),
			func(c *core.Config, span float64) { c.EMax = frac * span }, false})
	}
	for _, rk := range []core.ReplacementKind{core.ReplaceNearest, core.ReplaceRandom, core.ReplaceWorst} {
		for _, dk := range []core.DistanceKind{core.DistancePrediction, core.DistanceOverlap, core.DistanceHybrid} {
			rk, dk := rk, dk
			cases = append(cases, pruneCase{fmt.Sprintf("%v-%v", rk, dk), plain,
				func(c *core.Config, _ float64) { c.Replacement, c.Distance = rk, dk }, false})
		}
	}
	return cases
}

// pruneConfig is the base configuration of every case.
func pruneConfig(c pruneCase) core.Config {
	cfg := core.Default(c.data.D)
	cfg.Horizon = c.data.Horizon
	cfg.PopSize = 40
	cfg.Generations = 400
	cfg.Seed = 11
	cfg.Runtime.Workers = 1
	if c.set != nil {
		lo, hi := c.data.TargetRange()
		c.set(&cfg, hi-lo)
	}
	return cfg
}

// checkDrop regresses a dropped child on its matched set and fails t
// unless the child would not have replaced its target — chosen the way
// Execution.Step chooses it — and, where the gate located that target
// by the mean matched target ȳ, the child's Prediction lies within
// δ/100 of ȳ (δ = 10⁻⁶ of the target span).
func checkDrop(t *testing.T, ex *core.Execution, child *core.Rule, target int, idx []int) {
	r := child.Clone()
	ex.Eval.Regress(r, idx)
	lo, hi := ex.Eval.Data().TargetRange()
	cfg := &ex.Config
	switch cfg.Replacement {
	case core.ReplaceRandom:
	case core.ReplaceWorst:
		target = 0
		for i, p := range ex.Pop {
			if p.Fitness < ex.Pop[target].Fitness {
				target = i
			}
		}
	default:
		target = core.NearestIndex(ex.Pop, r, cfg.Distance, hi-lo)
	}
	if r.Fitness > ex.Pop[target].Fitness {
		t.Errorf("dropped a child of fitness %v (M=%d) that replaces rule %d of fitness %v",
			r.Fitness, r.Matches, target, ex.Pop[target].Fitness)
	}
	if len(idx) < 2 || cfg.Replacement != core.ReplaceNearest || cfg.Distance != core.DistancePrediction {
		return
	}
	sum := 0.0
	for _, i := range idx {
		sum += ex.Eval.Data().Targets[i]
	}
	ybar := sum / float64(len(idx))
	if d := math.Abs(r.Prediction - ybar); !(d <= 1e-8*(hi-lo)) {
		t.Errorf("child of M=%d predicts %v, %v (%.2g of the span) from ȳ = %v",
			len(idx), r.Prediction, d, d/(hi-lo), ybar)
	}
}

func sameRule(a, b *core.Rule) bool {
	bits := math.Float64bits
	if a.Matches != b.Matches || bits(a.Fitness) != bits(b.Fitness) ||
		bits(a.Error) != bits(b.Error) || bits(a.Prediction) != bits(b.Prediction) ||
		len(a.Cond) != len(b.Cond) || (a.Fit == nil) != (b.Fit == nil) {
		return false
	}
	for j, ga := range a.Cond {
		gb := b.Cond[j]
		if ga.Wildcard != gb.Wildcard || bits(ga.Lo) != bits(gb.Lo) || bits(ga.Hi) != bits(gb.Hi) {
			return false
		}
	}
	if a.Fit == nil {
		return true
	}
	if bits(a.Fit.Intercept) != bits(b.Fit.Intercept) {
		return false
	}
	for j := range a.Fit.Coef {
		if bits(a.Fit.Coef[j]) != bits(b.Fit.Coef[j]) {
			return false
		}
	}
	return true
}

// TestPruneExact steps a pruning execution and one that never prunes
// in lockstep: every dropped child passes checkDrop, and after every
// generation both populations are bit-identical. Crowding by the
// hybrid distance never prunes; every other case must prune.
func TestPruneExact(t *testing.T) {
	for _, c := range pruneCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cfg := pruneConfig(c)
			var never *core.Execution
			pruned := 0
			defer core.CheckPruned(func(ex *core.Execution, child *core.Rule, target int, idx []int) bool {
				checkDrop(t, ex, child, target, idx)
				if ex == never {
					return false
				}
				pruned++
				return true
			})()
			ctx := context.Background()
			ex, err := core.NewExecution(ctx, cfg, c.data)
			if err != nil {
				t.Fatal(err)
			}
			if never, err = core.NewExecution(ctx, cfg, c.data); err != nil {
				t.Fatal(err)
			}
			for g := 1; g <= cfg.Generations; g++ {
				a, b := ex.Step(ctx), never.Step(ctx)
				if a != b {
					t.Fatalf("generation %d: replaced %v with pruning, %v without", g, a, b)
				}
				for i := range ex.Pop {
					if !sameRule(ex.Pop[i], never.Pop[i]) {
						t.Fatalf("generation %d: rule %d differs with pruning:\n%+v\nwithout:\n%+v", g, i, ex.Pop[i], never.Pop[i])
					}
				}
			}
			if ex.Stats != never.Stats {
				t.Fatalf("stats differ: %+v with pruning, %+v without", ex.Stats, never.Stats)
			}
			hybrid := cfg.Replacement == core.ReplaceNearest && cfg.Distance == core.DistanceHybrid
			if hybrid && pruned > 0 || !hybrid && !c.mayNotPrune && pruned == 0 {
				t.Fatalf("pruned %d of %d offspring", pruned, cfg.Generations)
			}
			t.Logf("pruned %d of %d offspring", pruned, cfg.Generations)
		})
	}
}

// TestPruneExactIslands runs an island ring with pruning, checking
// every dropped child, and without: both give one rule set.
func TestPruneExactIslands(t *testing.T) {
	ds := veniceSet(t, 1, 0, 0)
	cfg := pruneConfig(pruneCase{data: ds})
	run := func(prune bool) (string, int64) {
		var pruned atomic.Int64
		defer core.CheckPruned(func(ex *core.Execution, child *core.Rule, target int, idx []int) bool {
			checkDrop(t, ex, child, target, idx)
			if prune {
				pruned.Add(1)
			}
			return prune
		})()
		res, err := core.RunIslands(context.Background(), core.IslandConfig{
			Base: cfg, Islands: 3, MigrationInterval: 100, Migrants: 2, Parallelism: 2,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		return digestRules(t, res.RuleSet), pruned.Load()
	}
	with, pruned := run(true)
	without, _ := run(false)
	if with != without {
		t.Fatalf("island rule set %s with pruning, %s without", with, without)
	}
	if pruned == 0 {
		t.Fatal("no island offspring was pruned")
	}
}
