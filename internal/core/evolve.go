package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/series"
)

// Stats tracks the trajectory of one execution for diagnostics,
// ablation benches and tests.
type Stats struct {
	Generations  int     // steady-state iterations performed
	Replacements int     // offspring that entered the population
	BestFitness  float64 // best fitness at the end
	MeanFitness  float64 // mean fitness at the end
	ValidRules   int     // rules above the fitness floor at the end
	EMaxResolved float64 // the EMAX actually used (after auto-resolution)
}

// Execution is one evolutionary run: a population of rules evolved
// against a training dataset with the paper's steady-state Michigan
// strategy.
type Execution struct {
	Config Config
	Pop    []*Rule
	Eval   *Evaluator
	Stats  Stats

	src      *rng.Source
	mut      *mutator
	sel      roulette // prefix sums of Pop's fitness, rebuilt every generation
	predSpan float64
	tel      *runTelemetry // nil = telemetry disabled (see Runtime.Telemetry)
	bestSeen float64       // best fitness the telemetry gauges have reported

	// Speculative offspring prefetch (see prefetch). spec is set when
	// the backend is context-aware (networked: BackendCtx); specLeft
	// counts the generations the open window still covers (0: none
	// open); kids is the window's pooled slice of simulated offspring.
	spec     bool
	specLeft int
	kids     []*Rule
}

// specWindow is the number of generations one speculative window
// simulates and matches ahead of the real loop.
const specWindow = 8

// NewExecution prepares (but does not run) an execution: it validates
// the configuration, resolves EMax against the data when unset,
// initializes the population with the paper's stratified procedure and
// evaluates it. The context bounds that initial evaluation — over a
// remote backend it is one RPC batch, which must stay cancellable.
func NewExecution(ctx context.Context, cfg Config, data *series.Dataset) (*Execution, error) {
	if cfg.D != data.D {
		return nil, fmt.Errorf("%w: config D=%d but dataset D=%d", ErrConfig, cfg.D, data.D)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lo, hi := data.TargetRange()
	emax := cfg.EMax
	if emax == 0 {
		// Auto-resolution: 10% of the training output span. EMAX is the
		// error a rule must beat to be viable; a fixed fraction of the
		// span transfers across the paper's differently-scaled domains.
		emax = 0.1 * (hi - lo)
		if emax == 0 {
			emax = 1
		}
	}

	ex := &Execution{
		Config: cfg,
		Eval: NewEvaluator(data, emax, cfg.FMin, cfg.Ridge, cfg.Runtime.Workers,
			EvalOptions{Backend: cfg.Runtime.Backend, Cache: cfg.Runtime.Cache, Telemetry: cfg.Runtime.Telemetry}),
		src:      rng.New(cfg.Seed),
		predSpan: hi - lo,
		tel:      newRunTelemetry(cfg.Runtime.Telemetry),
	}
	ex.Stats.EMaxResolved = emax

	// Per-lag data bounds for the mutator.
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
	ex.mut = newMutator(cfg.MutationRate, cfg.MutationSpan, cfg.WildcardRate, lagLo, lagHi)

	ex.Pop = InitStratified(data, cfg.PopSize)
	// Construction is bounded work (one batch over PopSize rules), but
	// over a remote backend that batch is an RPC: the caller's context
	// must reach it so a cancelled run never blocks in construction.
	if err := ex.Eval.EvaluateAll(ctx, ex.Pop); err != nil {
		return nil, fmt.Errorf("core: initial population evaluation: %w", err)
	}
	// A window costs one round trip instead of one per child, which
	// pays only where a match query is a round trip (README,
	// "Speculative offspring prefetch").
	ex.spec = ex.Eval.backendCtx != nil
	ex.noteInitialBest()
	return ex, nil
}

// step is the Step implementation; the exported wrapper (telemetry.go)
// adds the optional per-generation instrumentation. ctx reaches the
// offspring evaluation, so over a remote backend the match RPC is
// cancellable and traced under the caller's span.
func (ex *Execution) step(ctx context.Context) bool {
	cfg := &ex.Config
	ex.sel.reset(ex.Pop)
	if ex.spec && ex.specLeft == 0 {
		ex.prefetch(ctx)
	}
	child, target := ex.offspring(ex.src)
	pruned := ex.Eval.evaluate(ctx, child, func(idx []int) bool {
		return ex.cannotEnter(child, target, idx) &&
			(checkPruned == nil || checkPruned(ex, child, target, idx))
	})
	if pruned {
		// The child provably loses to its target: the generation
		// happened, but nothing was regressed.
		ex.countGeneration()
		return false
	}
	if ctx.Err() != nil || ex.Eval.BackendErr() != nil {
		// The evaluation may have been abandoned, leaving the child
		// with no evaluation or — a mutated clone — its parent's. The
		// generation does not happen; the run loop stops next.
		return false
	}

	switch cfg.Replacement {
	case ReplaceRandom:
		// target was drawn with the offspring.
	case ReplaceWorst:
		target = 0
		for i, r := range ex.Pop {
			if r.Fitness < ex.Pop[target].Fitness {
				target = i
			}
		}
	default: // ReplaceNearest — the paper's crowding
		target = nearestIndex(ex.Pop, child, cfg.Distance, ex.predSpan)
	}
	ex.countGeneration()
	if child.Fitness > ex.Pop[target].Fitness {
		ex.Pop[target] = child
		ex.Stats.Replacements++
		ex.noteImprovement(child)
		// The window was simulated against the population this child
		// just changed: the rest of its offspring will not be drawn.
		ex.endWindow()
		return true
	}
	return false
}

// countGeneration counts a generation that ran, and one more of the
// open speculative window's generations as foreseen.
func (ex *Execution) countGeneration() {
	ex.Stats.Generations++
	if ex.specLeft > 0 {
		ex.specLeft--
		ex.tel.specHit()
	}
}

// maxPruneRidge is the largest ridge under which the pruning gate
// trusts the Prediction of a child matching two rows or more to lie
// within δ of ȳ (cannotEnter). The property tests pin that bound up to
// this ridge, 100× the default; on Venice a ridge of 10 already moves
// the Prediction 2×10⁻⁵ of the span, 20δ, so under a larger ridge
// such children are always regressed.
const maxPruneRidge = 1e-6

// checkPruned is a test seam (export_test.go) and nil in every real
// run. When set, each child the pruning gate would drop is handed to
// it with its target and matched set, and the drop happens only if it
// returns true.
var checkPruned func(ex *Execution, child *Rule, target int, idx []int) bool

// cannotEnter reports whether child, whose matched set is idx, cannot
// enter the population whatever its regression yields, so step may
// skip that regression. target is the slot offspring drew (-1 unless
// ReplaceRandom). The child enters only if its fitness is strictly
// above its target's, and no regression can lift its fitness above
//
//	U = f_min                  when M ≤ 1
//	U = max(fl(M·EMAX), f_min) otherwise,
//
// since rounded subtraction of e_R ≥ 0 never rises. So the child is
// dropped when every rule that can be its target has fitness ≥ U.
// A NaN or infinite quantity on the way never drops (README, "Pruning
// offspring that cannot enter").
func (ex *Execution) cannotEnter(child *Rule, target int, idx []int) bool {
	e, cfg, m := ex.Eval, &ex.Config, len(idx)
	u := e.fmin
	if m > 1 {
		u = max(float64(m)*e.emax, e.fmin)
	}
	if math.IsNaN(u) || math.IsInf(u, 0) {
		return false
	}
	beats := func(i int) bool { return ex.Pop[i].Fitness >= u }
	switch {
	case cfg.Replacement == ReplaceRandom:
		return beats(target)
	case cfg.Replacement == ReplaceWorst:
		for i := range ex.Pop {
			if !beats(i) {
				return false
			}
		}
		return true
	case cfg.Distance == DistanceOverlap:
		return beats(nearestIndex(ex.Pop, child, cfg.Distance, ex.predSpan))
	case cfg.Distance == DistanceHybrid:
		// Its clipped, span-normalized prediction term would need a
		// tolerance argument of its own; only an ablation uses it.
		return false
	}
	// Crowding by Prediction. With no match the child keeps its
	// inherited Prediction, and one match predicts that row's target:
	// both are known exactly.
	switch m {
	case 0:
		return beats(nearestIndex(ex.Pop, child, cfg.Distance, ex.predSpan))
	case 1:
		return beats(nearestIndex(ex.Pop, &Rule{Prediction: e.data.Targets[idx[0]]}, cfg.Distance, ex.predSpan))
	}
	// Otherwise the Prediction is the mean fitted output, which is
	// ȳ − λ·b/M in exact arithmetic (ridge λ sits on the intercept's
	// diagonal entry too; b is the intercept) and within δ of ȳ in
	// practice: the property tests find it within δ/100 for tame
	// inputs (finite, no overflow) and a small ridge, the conditions
	// checked here. Every rule within best + 2δ of ȳ may then be the
	// nearest; all of them must hold the child off.
	if !e.inputsTame() || !(e.ridge <= maxPruneRidge) {
		return false
	}
	sum := 0.0
	for _, i := range idx {
		sum += e.data.Targets[i]
	}
	ybar := sum / float64(m)
	delta := 1e-6 * ex.predSpan
	best := math.Inf(1) // as in nearestIndex, a NaN distance is never nearest
	for _, r := range ex.Pop {
		if d := math.Abs(r.Prediction - ybar); d < best {
			best = d
		}
	}
	reach := best + 2*delta
	if !(delta > 0) || math.IsNaN(reach) || math.IsInf(reach, 0) {
		return false
	}
	for i, r := range ex.Pop {
		if math.Abs(r.Prediction-ybar) <= reach && !beats(i) {
			return false
		}
	}
	return true
}

// offspring draws one generation's randomness from src, in exactly the
// order a generation consumes it: the crossover coin, the parents'
// roulette trials over ex.sel (which must hold ex.Pop's prefix sums),
// the crossover genes, the mutations and — for ReplaceRandom only —
// the replacement slot. It returns the unevaluated child and that
// slot; the other replacement kinds choose by the child's evaluation,
// draw nothing, and get -1. The real generation and the speculative
// window both draw through this one function, so their streams cannot
// drift apart.
func (ex *Execution) offspring(src *rng.Source) (*Rule, int) {
	cfg := &ex.Config
	var child *Rule
	if src.Bool(cfg.CrossoverRate) {
		pa := ex.sel.pick(ex.Pop, cfg.TournamentRounds, src)
		pb := ex.sel.pick(ex.Pop, cfg.TournamentRounds, src)
		child = crossover(ex.Pop[pa], ex.Pop[pb], src)
	} else {
		// Mutation-only reproduction (ablation path; the paper always
		// crosses over).
		pa := ex.sel.pick(ex.Pop, cfg.TournamentRounds, src)
		child = ex.Pop[pa].Clone()
	}
	ex.mut.mutate(child, src)
	target := -1
	if cfg.Replacement == ReplaceRandom {
		target = src.Intn(len(ex.Pop))
	}
	return child, target
}

// prefetch opens a speculative window: on a fork of the random stream
// it draws the offspring of the next specWindow generations exactly as
// step will — against the current population (ex.sel must hold its
// prefix sums), assuming none of them replaces anyone — and fetches
// their matched sets in one batch (one MatchBatch, one cluster round
// trip). The real generations then take their child's set from the
// evaluator instead of querying the backend one round trip each; the
// pruning gate and the regression run in the real generation as
// always. A set is a pure function of its signature, so results are
// bit-identical whether or not a child's set was fetched ahead.
func (ex *Execution) prefetch(ctx context.Context) {
	k := min(specWindow, ex.Config.Generations-ex.Stats.Generations)
	if k < 2 {
		return // the real generation alone is the same batch
	}
	src := ex.src.Fork()
	ex.kids = ex.kids[:0]
	for i := 0; i < k; i++ {
		child, _ := ex.offspring(src)
		ex.kids = append(ex.kids, child)
	}
	ex.specLeft = k
	ex.tel.specWindow(k)
	ex.Eval.prefetch(ctx, ex.kids)
	clear(ex.kids) // drop the simulated rules; keep the slice
}

// endWindow closes the open speculative window, if any, counting the
// generations it simulated that will not run against its population.
func (ex *Execution) endWindow() {
	ex.tel.specWasted(ex.specLeft)
	ex.specLeft = 0
}

// Run performs the configured number of generations and refreshes the
// final statistics. A non-nil fn is called with a snapshot every
// `every` generations (every < 1 is treated as 1) and once more at the
// end; fn returning false stops the run early, with a nil error.
//
// The context is checked between generations: a cancelled or expired
// context stops the loop promptly and Run returns ctx.Err(), with the
// population left as a valid best-so-far snapshot (every rule carries
// a complete evaluation — steps are atomic, so cancellation can never
// publish a torn individual) that the final fn call still sees. A
// backend fault (BackendHealth, e.g. a lost shard server) also stops
// the loop and is returned instead — the population then still holds
// only complete pre-fault evaluations, never results computed from
// truncated matches.
func (ex *Execution) Run(ctx context.Context, every int, fn func(Progress) bool) error {
	every = max(every, 1)
	ctx, sp := ex.spanCtx(ctx, "core.execution")
	defer sp.End()
	for g := 1; g <= ex.Config.Generations; g++ {
		if ctx.Err() != nil || ex.Eval.BackendErr() != nil {
			break
		}
		ex.Step(ctx)
		if fn != nil && g%every == 0 && !fn(ex.snapshot()) {
			break
		}
	}
	ex.refreshStats()
	if fn != nil {
		fn(ex.snapshot())
	}
	if err := ex.Eval.BackendErr(); err != nil {
		return err
	}
	return ctx.Err()
}

// refreshStats recomputes the end-of-run aggregate statistics. Every
// run loop (Run, RunIslands) ends here once per execution, so it also
// closes a speculative window the run stopped inside and emits the
// execution_done trace event.
func (ex *Execution) refreshStats() {
	ex.endWindow()
	best, sum := ex.Pop[0].Fitness, 0.0
	valid := 0
	for _, r := range ex.Pop {
		if r.Fitness > best {
			best = r.Fitness
		}
		sum += r.Fitness
		if r.Fitness > ex.Config.FMin {
			valid++
		}
	}
	ex.Stats.BestFitness = best
	ex.Stats.MeanFitness = sum / float64(len(ex.Pop))
	ex.Stats.ValidRules = valid
	ex.noteRunDone()
}

// ValidRules returns the rules whose fitness exceeds the floor — the
// individuals the paper's final system keeps from this execution.
func (ex *Execution) ValidRules() []*Rule {
	var out []*Rule
	for _, r := range ex.Pop {
		if r.Fitness > ex.Config.FMin && r.Fitted() {
			out = append(out, r)
		}
	}
	return out
}
