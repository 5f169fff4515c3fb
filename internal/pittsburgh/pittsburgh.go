// Package pittsburgh implements the Pittsburgh-approach counterpart
// of the paper's Michigan rule system, as an architectural baseline:
// where Michigan evolves individual rules and takes the population as
// the solution (§2 of the paper), Pittsburgh evolves complete rule
// SETS as individuals with a generational GA. The paper argues the
// Michigan approach is what lets atypical behaviours survive; this
// package exists to quantify that claim (see the ablation benches).
package pittsburgh

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/series"
)

// Config parameterizes the Pittsburgh GA.
type Config struct {
	RulesPerSet  int     // rules in each individual (fixed length)
	PopSize      int     // number of rule sets
	Generations  int     // generational GA iterations
	TournamentK  int     // tournament size for parent selection
	CrossoverP   float64 // per-offspring probability of set-level crossover
	MutationRate float64 // per-gene mutation probability (within rules)
	MutationSpan float64 // mutation magnitude as fraction of lag range
	Elitism      int     // best sets copied unchanged each generation
	CoverWeight  float64 // fitness weight of coverage vs error
	Seed         int64

	// Backend optionally routes the per-rule match queries through a
	// shared evaluation backend (a core.MatchIndex, or the sharded
	// engine in internal/engine) instead of a private single index.
	// A speed knob only: results are bit-identical either way.
	Backend core.Backend
}

// Default returns a small but workable configuration.
func Default() Config {
	return Config{
		RulesPerSet:  20,
		PopSize:      30,
		Generations:  60,
		TournamentK:  3,
		CrossoverP:   0.9,
		MutationRate: 0.1,
		MutationSpan: 0.1,
		Elitism:      2,
		CoverWeight:  0.5,
		Seed:         1,
	}
}

// Validate rejects inconsistent settings.
func (c *Config) Validate() error {
	switch {
	case c.RulesPerSet < 1:
		return fmt.Errorf("pittsburgh: RulesPerSet=%d", c.RulesPerSet)
	case c.PopSize < 2:
		return fmt.Errorf("pittsburgh: PopSize=%d", c.PopSize)
	case c.Generations < 1:
		return fmt.Errorf("pittsburgh: Generations=%d", c.Generations)
	case c.TournamentK < 1:
		return fmt.Errorf("pittsburgh: TournamentK=%d", c.TournamentK)
	case c.CrossoverP < 0 || c.CrossoverP > 1:
		return fmt.Errorf("pittsburgh: CrossoverP=%v", c.CrossoverP)
	case c.MutationRate < 0 || c.MutationRate > 1:
		return fmt.Errorf("pittsburgh: MutationRate=%v", c.MutationRate)
	case c.MutationSpan <= 0:
		return fmt.Errorf("pittsburgh: MutationSpan=%v", c.MutationSpan)
	case c.Elitism < 0 || c.Elitism >= c.PopSize:
		return fmt.Errorf("pittsburgh: Elitism=%d outside [0,PopSize)", c.Elitism)
	case c.CoverWeight < 0 || c.CoverWeight > 1:
		return fmt.Errorf("pittsburgh: CoverWeight=%v outside [0,1]", c.CoverWeight)
	}
	return nil
}

// individual is one candidate solution: a complete rule set.
type individual struct {
	rules   []*core.Rule
	fitness float64
}

// Result is the outcome of a Pittsburgh run.
type Result struct {
	RuleSet     *core.RuleSet // the best individual, as a predictor
	BestFitness float64
	History     []float64 // best fitness per generation
}

// Run evolves rule sets on the training data and returns the best.
// The context is checked between generations (and inside each
// generation between offspring): on cancellation the incomplete
// generation is discarded and Run returns the best individual of the
// last complete one together with ctx.Err(). Cancellation during
// population initialization returns a nil result.
func Run(ctx context.Context, cfg Config, data *series.Dataset) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if data.Len() == 0 {
		return nil, errors.New("pittsburgh: empty training set")
	}
	src := rng.New(cfg.Seed)
	// The set evaluator re-fits every rule of every individual each
	// generation against the same dataset — exactly the workload a
	// match backend (its own core.MatchIndex unless cfg.Backend is set)
	// accelerates.
	eval := newSetEvaluator(data, cfg.CoverWeight, core.EvalOptions{Backend: cfg.Backend})

	// Initial population: each individual draws its rules from the
	// paper's stratified initializer (so sets start with full output
	// coverage), then gets its consequents fitted.
	pop := make([]*individual, cfg.PopSize)
	for i := range pop {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rules := core.InitStratified(data, cfg.RulesPerSet)
		// Perturb every individual differently so the population is
		// not PopSize copies of the same set.
		ind := &individual{rules: rules}
		mutateSet(ind, cfg, eval, src)
		eval.refit(ctx, ind)
		ind.fitness = eval.fitness(ind)
		pop[i] = ind
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{}
	for g := 0; g < cfg.Generations && ctx.Err() == nil; g++ {
		next := make([]*individual, 0, cfg.PopSize)
		// Elitism: carry the best sets over unchanged.
		order := sortByFitness(pop)
		for e := 0; e < cfg.Elitism; e++ {
			next = append(next, cloneIndividual(order[e]))
		}
		for len(next) < cfg.PopSize {
			if ctx.Err() != nil {
				break
			}
			pa := tournament(pop, cfg.TournamentK, src)
			var child *individual
			if src.Bool(cfg.CrossoverP) {
				pb := tournament(pop, cfg.TournamentK, src)
				child = crossoverSets(pa, pb, src)
			} else {
				child = cloneIndividual(pa)
			}
			mutateSet(child, cfg, eval, src)
			if eval.refit(ctx, child) != nil {
				break // a torn refit never enters the population
			}
			child.fitness = eval.fitness(child)
			next = append(next, child)
		}
		if ctx.Err() != nil {
			break // discard the incomplete generation; pop stays valid
		}
		pop = next
		best := sortByFitness(pop)[0]
		res.History = append(res.History, best.fitness)
	}

	best := sortByFitness(pop)[0]
	rs := core.NewRuleSet(data.D)
	for _, r := range best.rules {
		if r.Fitted() {
			rs.Add(r)
		}
	}
	res.RuleSet = rs
	res.BestFitness = best.fitness
	return res, ctx.Err()
}

// setEvaluator scores whole rule sets: fitness mixes normalized
// coverage and normalized error on the training set.
type setEvaluator struct {
	data        *series.Dataset
	coverWeight float64
	ruleEval    *core.Evaluator
	span        float64
	lagLo       []float64
	lagHi       []float64
}

func newSetEvaluator(data *series.Dataset, coverWeight float64, opt core.EvalOptions) *setEvaluator {
	lo, hi := data.TargetRange()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	lagLo := make([]float64, data.D)
	lagHi := make([]float64, data.D)
	for j := 0; j < data.D; j++ {
		lagLo[j], lagHi[j] = data.Inputs[0][j], data.Inputs[0][j]
	}
	for _, row := range data.Inputs {
		for j, v := range row {
			if v < lagLo[j] {
				lagLo[j] = v
			}
			if v > lagHi[j] {
				lagHi[j] = v
			}
		}
	}
	return &setEvaluator{
		data:        data,
		coverWeight: coverWeight,
		ruleEval:    core.NewEvaluator(data, math.Inf(1), 0, 1e-8, 1, opt),
		span:        span,
		lagLo:       lagLo,
		lagHi:       lagHi,
	}
}

// refit re-fits every rule's consequent after structural changes —
// one batched evaluation per individual, so a backend serves the
// whole set in a single scheduling pass. A non-nil error means the
// context was cancelled mid-batch and the individual must not be used.
func (e *setEvaluator) refit(ctx context.Context, ind *individual) error {
	return e.ruleEval.EvaluateAll(ctx, ind.rules)
}

// fitness = coverWeight·coverage + (1-coverWeight)·(1 - RMSE/span),
// both terms in [0,1]; uncovered sets score only the coverage term.
func (e *setEvaluator) fitness(ind *individual) float64 {
	rs := core.NewRuleSet(e.data.D)
	for _, r := range ind.rules {
		if r.Fitted() {
			rs.Add(r)
		}
	}
	var se float64
	covered := 0
	for i, pattern := range e.data.Inputs {
		v, ok := rs.Predict(pattern)
		if !ok {
			continue
		}
		covered++
		d := v - e.data.Targets[i]
		se += d * d
	}
	coverage := float64(covered) / float64(e.data.Len())
	if covered == 0 {
		return 0
	}
	rmse := math.Sqrt(se / float64(covered))
	acc := 1 - rmse/e.span
	if acc < 0 {
		acc = 0
	}
	return e.coverWeight*coverage + (1-e.coverWeight)*acc
}

// tournament returns the fittest of k uniform draws.
func tournament(pop []*individual, k int, src *rng.Source) *individual {
	best := pop[src.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[src.Intn(len(pop))]
		if c.fitness > best.fitness {
			best = c
		}
	}
	return best
}

// crossoverSets performs one-point crossover at the rule-set level:
// the child takes a prefix of parent A's rules and the suffix of B's.
func crossoverSets(a, b *individual, src *rng.Source) *individual {
	n := len(a.rules)
	cut := 1 + src.Intn(n-1)
	rules := make([]*core.Rule, n)
	for i := 0; i < cut; i++ {
		rules[i] = a.rules[i].Clone()
	}
	for i := cut; i < n; i++ {
		rules[i] = b.rules[i].Clone()
	}
	return &individual{rules: rules}
}

// mutateSet applies interval mutations inside every rule, mirroring
// the Michigan mutator's operators via the public Interval API.
func mutateSet(ind *individual, cfg Config, e *setEvaluator, src *rng.Source) {
	for _, r := range ind.rules {
		for j := range r.Cond {
			if !src.Bool(cfg.MutationRate) {
				continue
			}
			lagRange := e.lagHi[j] - e.lagLo[j]
			if lagRange == 0 {
				lagRange = 1
			}
			if r.Cond[j].Wildcard {
				continue
			}
			delta := src.Uniform(0, cfg.MutationSpan*lagRange)
			switch src.Intn(4) {
			case 0:
				r.Cond[j] = r.Cond[j].Enlarge(delta)
			case 1:
				r.Cond[j] = r.Cond[j].Shrink(delta)
			case 2:
				r.Cond[j] = r.Cond[j].Shift(delta)
			case 3:
				r.Cond[j] = r.Cond[j].Shift(-delta)
			}
			r.Cond[j] = r.Cond[j].Clamp(e.lagLo[j], e.lagHi[j])
		}
	}
}

func cloneIndividual(ind *individual) *individual {
	rules := make([]*core.Rule, len(ind.rules))
	for i, r := range ind.rules {
		rules[i] = r.Clone()
	}
	return &individual{rules: rules, fitness: ind.fitness}
}

// sortByFitness returns the population ordered best-first (stable,
// non-mutating).
func sortByFitness(pop []*individual) []*individual {
	out := append([]*individual(nil), pop...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].fitness > out[j-1].fitness; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
