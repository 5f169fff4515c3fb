package core

import (
	"context"
	"fmt"

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

	// Speculative offspring prefetch (see prefetch). spec is decided
	// once, from the evaluated initial population (batchPays); specLeft
	// counts the generations the open window still covers (0: none
	// open); kids is the window's pooled slice of simulated offspring.
	spec     bool
	specLeft int
	kids     []*Rule
}

// specWindow is the number of generations one speculative window
// simulates and scores ahead of the real loop.
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
		Eval: NewEvaluatorOpt(data, emax, cfg.FMin, cfg.Ridge, cfg.Runtime.Workers,
			EvalOptions{Index: cfg.Runtime.Index, Backend: cfg.Runtime.Backend, Cache: cfg.Runtime.Cache, Telemetry: cfg.Runtime.Telemetry}),
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
	ex.spec = ex.batchPays()
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
	ex.Eval.EvaluateCtx(ctx, child)
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
	ex.Stats.Generations++
	if ex.specLeft > 0 {
		ex.specLeft--
		ex.tel.specHit()
	}
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
// prefix sums), assuming none of them replaces anyone — and scores
// them in one batch (one MatchBatch, one cluster round trip,
// regressions in parallel across workers). The batch only warms the
// evaluation cache: the real generations then find their children
// there. Cache entries are pure functions of their
// key, so results are bit-identical whether or not a child is found.
// A batch cut short by cancellation or a backend fault caches nothing
// incomplete; the real generation then meets the failure as before.
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

// specMinWork is the estimated regression work per offspring from
// which an in-process execution scores its windows ahead. The estimate
// is the mean matched-set size of the initial population times (D+1)²,
// the order of the multiply-adds one offspring's normal equations
// take. Below it the regressions are too cheap for a batch to save
// what the simulation and the batch machinery cost. Measured on a
// 2-vCPU host, speculation on against off at one and at two workers:
// Mackey-Glass at D=4 (≈4.4k) lost 40%, at D=8 and D=12 (≈7–8k) it
// was a wash on one worker, and Venice from D=4 (≈50k) to D=24 (≈1.1M)
// gained 13–40% on either. The threshold sits between those (README,
// "Speculative offspring prefetch"). A var only so tests can turn
// speculation on for small fits.
var specMinWork = 2e4

// batchPays reports whether windows are worth scoring ahead: always
// over a context-aware (networked) backend, where a window costs one
// round trip instead of one per child, and in process when the
// population's regressions are dear enough (specMinWork), whatever the
// worker count.
func (ex *Execution) batchPays() bool {
	if ex.Eval.backendCtx != nil {
		return true
	}
	rows := 0
	for _, r := range ex.Pop {
		rows += r.Matches
	}
	d := float64(ex.Config.D + 1)
	return float64(rows)/float64(len(ex.Pop))*d*d >= specMinWork
}

// endWindow closes the open speculative window, if any, counting the
// generations it simulated that will not run against its population.
func (ex *Execution) endWindow() {
	ex.tel.specWasted(ex.specLeft)
	ex.specLeft = 0
}

// Run performs the configured number of generations and refreshes the
// final statistics. The context is checked between generations: a
// cancelled or expired context stops the loop promptly and Run returns
// ctx.Err(), with the population left as a valid best-so-far snapshot
// (every rule carries a complete evaluation — steps are atomic, so
// cancellation can never publish a torn individual). A backend fault
// (BackendHealth, e.g. a lost shard server) also stops the loop and
// is returned instead — the population then still holds only complete
// pre-fault evaluations, never results computed from truncated
// matches. A nil error means the full budget was spent.
func (ex *Execution) Run(ctx context.Context) error {
	ctx, sp := ex.spanCtx(ctx, "core.execution")
	defer sp.End()
	for g := 0; g < ex.Config.Generations; g++ {
		if ctx.Err() != nil || ex.Eval.BackendErr() != nil {
			break
		}
		ex.Step(ctx)
	}
	ex.refreshStats()
	ex.noteRunDone()
	if err := ex.Eval.BackendErr(); err != nil {
		return err
	}
	return ctx.Err()
}

// refreshStats recomputes the end-of-run aggregate statistics. Every
// run loop ends here, so it also closes a speculative window the run
// stopped inside.
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
