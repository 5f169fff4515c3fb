package core

import (
	"context"
	"math"

	"repro/internal/obs"
)

// This file is the evolutionary core's telemetry seam: per-generation
// duration, evaluations computed vs served from cache, and the
// best-of-run trajectory (gauges plus trace events). Wiring is the
// same as the engine's — Runtime.Telemetry flows into the evaluator
// and execution at construction; with no registry every hook is one
// nil check and the run is byte-identical to an uninstrumented one.

// runTelemetry bundles an execution's metric handles.
type runTelemetry struct {
	reg   *obs.Registry
	genNs *obs.Histogram // core_generation_ns: one steady-state Step
	gens  *obs.Counter   // core_generations
	best  *obs.Gauge     // core_best_fitness: best fitness seen so far
	bestE *obs.Gauge     // core_best_error: that rule's training error

	// Speculative offspring prefetch (Execution.prefetch). Every
	// simulated child ends as a hit or as waste, so once a run has
	// ended, spec_evals = spec_hits + spec_wasted.
	specWindows *obs.Counter // core_spec_windows: windows opened
	specEvals   *obs.Counter // core_spec_evals: offspring simulated and scored ahead
	specHits    *obs.Counter // core_spec_hits: generations whose child a window foresaw
	specWaste   *obs.Counter // core_spec_wasted: foreseen generations that never ran
}

func newRunTelemetry(reg *obs.Registry) *runTelemetry {
	if reg == nil {
		return nil
	}
	return &runTelemetry{
		reg:   reg,
		genNs: reg.Histogram("core_generation_ns"),
		gens:  reg.Counter("core_generations"),
		best:  reg.Gauge("core_best_fitness"),
		bestE: reg.Gauge("core_best_error"),

		specWindows: reg.Counter("core_spec_windows"),
		specEvals:   reg.Counter("core_spec_evals"),
		specHits:    reg.Counter("core_spec_hits"),
		specWaste:   reg.Counter("core_spec_wasted"),
	}
}

// specWindow records a speculative window of k simulated offspring.
func (t *runTelemetry) specWindow(k int) {
	if t == nil {
		return
	}
	t.specWindows.Inc()
	t.specEvals.Add(uint64(k))
}

// specHit records a generation that ran inside an open window.
func (t *runTelemetry) specHit() {
	if t != nil {
		t.specHits.Inc()
	}
}

// specWasted records n simulated generations a window closed without
// running — a replacement or a migration changed the population, or
// the run stopped.
func (t *runTelemetry) specWasted(n int) {
	if t != nil && n > 0 {
		t.specWaste.Add(uint64(n))
	}
}

// Step performs one steady-state generation: select two parents by
// 3-round trials, produce one offspring by uniform crossover, mutate
// it, evaluate it, and let it replace the phenotypically nearest
// individual iff it is fitter (crowding). Returns true if the
// offspring entered the population. ctx bounds the offspring's match
// query (a cancellable RPC over a remote backend) and, when it carries
// a trace span, parents this generation's "core.generation" span.
func (ex *Execution) Step(ctx context.Context) bool {
	t := ex.tel
	if t == nil {
		return ex.step(ctx)
	}
	ctx, sp := t.reg.ChildSpanCtx(ctx, "core.generation")
	start := t.reg.Now()
	replaced := ex.step(ctx)
	sp.End()
	t.genNs.Observe(t.reg.Now() - start)
	t.gens.Inc()
	return replaced
}

// spanCtx opens a run-level child span ("core.execution") when tracing
// is on and ctx already carries a parent — the facade's fit root;
// otherwise it returns ctx unchanged and a nil (no-op) span.
func (ex *Execution) spanCtx(ctx context.Context, name string) (context.Context, *obs.Span) {
	if ex.tel == nil {
		return ctx, nil
	}
	return ex.tel.reg.ChildSpanCtx(ctx, name)
}

// noteImprovement records a new best-of-run individual: the trajectory
// gauges move and, when a tracer is attached, a "best_improved" event
// is emitted. The gauges are last-writer-wins — parallel executions
// sharing one registry overwrite each other, which is the documented
// semantics (attach one registry per run to separate trajectories).
func (ex *Execution) noteImprovement(r *Rule) {
	t := ex.tel
	if t == nil || r.Fitness <= ex.bestSeen {
		return
	}
	ex.bestSeen = r.Fitness
	t.best.Set(r.Fitness)
	t.bestE.Set(r.Error)
	if t.reg.Tracing() {
		t.reg.Trace("best_improved", map[string]any{
			"generation": ex.Stats.Generations,
			"fitness":    r.Fitness,
			"error":      r.Error,
			"matches":    r.Matches,
		})
	}
}

// noteInitialBest seeds the trajectory from the evaluated initial
// population, so the gauges are live before the first Step.
func (ex *Execution) noteInitialBest() {
	if ex.tel == nil {
		return
	}
	ex.bestSeen = math.Inf(-1)
	best := ex.Pop[0]
	for _, r := range ex.Pop {
		if r.Fitness > best.Fitness {
			best = r
		}
	}
	ex.noteImprovement(best)
}

// noteRunDone emits the end-of-run trace event (refreshStats calls it
// once Stats are final).
func (ex *Execution) noteRunDone() {
	t := ex.tel
	if t == nil || !t.reg.Tracing() {
		return
	}
	t.reg.Trace("execution_done", map[string]any{
		"generations":  ex.Stats.Generations,
		"replacements": ex.Stats.Replacements,
		"best_fitness": ex.Stats.BestFitness,
		"mean_fitness": ex.Stats.MeanFitness,
		"valid_rules":  ex.Stats.ValidRules,
	})
}
