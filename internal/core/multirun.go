package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/series"
)

// MultiRunConfig drives §3.4's accumulation of executions: rules from
// independent runs are merged into one RuleSet until the training-set
// coverage reaches CoverageTarget or MaxExecutions runs have been
// spent. Executions run Parallelism at a time on a worker pool; seeds
// are split deterministically from the base config seed, so the result
// is identical for any parallelism degree.
type MultiRunConfig struct {
	Base           Config  // per-execution configuration (seed is re-derived per run)
	CoverageTarget float64 // stop once training coverage reaches this (e.g. 0.95); >1 disables early stopping
	MaxExecutions  int     // hard cap on executions
	Parallelism    int     // concurrent executions; 0 = GOMAXPROCS

	// OnProgress, when non-nil, is invoked from every execution each
	// ProgressEvery generations (plus once at each execution's end)
	// with the execution's index and snapshot. Calls are serialized
	// across the concurrent wave — fn never runs twice at once — but
	// may interleave across executions in any order. Returning false
	// stops that one execution early; the outer coverage loop is
	// unaffected. Purely observational: the callback cannot change
	// results it merely watches.
	OnProgress func(execution int, p Progress) bool
	// ProgressEvery is the generation stride between OnProgress calls
	// (<1 is treated as 1). Ignored when OnProgress is nil.
	ProgressEvery int
}

// Validate checks the multi-run configuration.
func (c *MultiRunConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.CoverageTarget < 0 {
		return fmt.Errorf("%w: CoverageTarget=%v must be non-negative", ErrConfig, c.CoverageTarget)
	}
	if c.MaxExecutions < 1 {
		return fmt.Errorf("%w: MaxExecutions=%d must be at least 1", ErrConfig, c.MaxExecutions)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("%w: Parallelism=%d must be non-negative", ErrConfig, c.Parallelism)
	}
	return nil
}

// MultiRunResult reports the accumulated system and per-execution
// statistics.
type MultiRunResult struct {
	RuleSet    *RuleSet
	Executions []Stats
	Coverage   float64 // final training coverage
}

// MultiRun executes the paper's outer loop. Executions are launched
// in waves of cfg.Parallelism and accumulated in seed order; the
// accumulation stops at the first execution whose rules bring the
// coverage to the target, so the result does not depend on the wave
// size.
//
// The context bounds the whole accumulation: it is checked between
// waves and, inside every execution, between generations. On
// cancellation MultiRun returns promptly with BOTH a non-nil result —
// the best-so-far system: every completed execution's rules plus the
// valid rules each in-flight execution had evolved by the time it
// stopped — and ctx.Err(). Configuration errors still return a nil
// result.
func MultiRun(ctx context.Context, cfg MultiRunConfig, data *series.Dataset) (*MultiRunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seeds := rng.New(cfg.Base.Seed).SplitN(cfg.MaxExecutions)
	res := &MultiRunResult{RuleSet: NewRuleSet(data.D)}
	// One match backend serves every execution: the configured one, or
	// one immutable match index built here and shared by the waves.
	if cfg.Base.Runtime.Backend == nil {
		cfg.Base.Runtime.Backend = NewMatchIndex(data)
	}

	// Serialize progress callbacks across the wave's goroutines so
	// observers never see two snapshots at once.
	var progressMu sync.Mutex

	wave := parallel.Workers(cfg.Parallelism)
	for done := 0; done < cfg.MaxExecutions && ctx.Err() == nil; {
		n := wave
		if done+n > cfg.MaxExecutions {
			n = cfg.MaxExecutions - done
		}
		type runOut struct {
			rules []*Rule
			stats Stats
			err   error
		}
		outs := make([]runOut, n)
		parallel.For(n, n, func(i int) {
			c := cfg.Base
			c.Seed = seeds[done+i].Seed()
			// Within a wave of several executions each occupies one
			// goroutine; keep their inner scans and batches serial to
			// avoid oversubscription. A lone execution keeps the
			// configured workers for its own batches.
			if n > 1 {
				c.Runtime.Workers = 1
			}
			ex, err := NewExecution(ctx, c, data)
			if err != nil {
				// Construction aborted by the wave's own cancellation
				// (the initial evaluation is ctx-bound): not a fault.
				// Record an empty execution — exactly what a run
				// cancelled at generation zero records — and let the
				// loop condition surface ctx.Err().
				if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
					outs[i] = runOut{}
					return
				}
				outs[i] = runOut{err: err}
				return
			}
			// A cancelled run is not an error here: the execution's
			// best-so-far rules still join the accumulated system, and
			// the loop condition surfaces ctx.Err() once the wave drains.
			// Any other run error (a backend fault) is fatal — its rules
			// were evolved against a failing match path.
			var fn func(Progress) bool
			if cfg.OnProgress != nil {
				exec := done + i
				fn = func(p Progress) bool {
					progressMu.Lock()
					defer progressMu.Unlock()
					return cfg.OnProgress(exec, p)
				}
			}
			if runErr := ex.Run(ctx, cfg.ProgressEvery, fn); runErr != nil && !errors.Is(runErr, ctx.Err()) {
				outs[i] = runOut{err: runErr}
				return
			}
			outs[i] = runOut{rules: ex.ValidRules(), stats: ex.Stats}
		})
		// Accumulate in seed order and stop at the first execution that
		// reaches the target, dropping the rest of its wave, so the
		// result is what waves of one would have built. Coverage is
		// checked once per wave when the target is unreachable (>1) or
		// the wave was cancelled: a cancelled fit keeps every
		// execution's best-so-far rules.
		perExec := cfg.CoverageTarget <= 1 && ctx.Err() == nil
		for i, o := range outs {
			if o.err != nil {
				return nil, o.err
			}
			res.RuleSet.Add(o.rules...)
			res.Executions = append(res.Executions, o.stats)
			if perExec || i == n-1 {
				res.Coverage = res.RuleSet.Coverage(data)
				if res.Coverage >= cfg.CoverageTarget {
					return res, ctx.Err()
				}
			}
		}
		done += n
	}
	return res, ctx.Err()
}
