package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/series"
)

// IslandConfig drives the island-model extension of the paper's
// multi-execution scheme: instead of fully independent executions,
// populations evolve concurrently and periodically exchange their
// best rules around a ring. Migration spreads good building blocks
// (interval genes) while islands still specialize on different zones
// of the prediction space — the same diversity goal as crowding, at
// the population level.
type IslandConfig struct {
	Base              Config // per-island configuration (seed is split per island)
	Islands           int    // number of concurrent populations
	MigrationInterval int    // generations between migrations
	Migrants          int    // rules copied to the next island per migration
	Parallelism       int    // islands evolved concurrently; 0 = GOMAXPROCS

	// OnProgress, when non-nil, is invoked serially (island 0, 1, …)
	// after every lockstep epoch with each island's snapshot. Any
	// callback returning false ends the whole run after the current
	// epoch — the islands' best-so-far populations are still merged.
	// Purely observational.
	OnProgress func(island int, p Progress) bool
}

// Validate checks the island configuration.
func (c *IslandConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.Islands < 2 {
		return fmt.Errorf("%w: Islands=%d must be at least 2", ErrConfig, c.Islands)
	}
	if c.MigrationInterval < 1 {
		return fmt.Errorf("%w: MigrationInterval=%d must be positive", ErrConfig, c.MigrationInterval)
	}
	if c.Migrants < 1 || c.Migrants >= c.Base.PopSize {
		return fmt.Errorf("%w: Migrants=%d outside [1,PopSize)", ErrConfig, c.Migrants)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("%w: Parallelism=%d must be non-negative", ErrConfig, c.Parallelism)
	}
	return nil
}

// IslandResult reports the merged system and per-island statistics.
type IslandResult struct {
	RuleSet    *RuleSet
	PerIsland  []Stats
	Migrations int
}

// RunIslands evolves cfg.Islands populations for cfg.Base.Generations
// steady-state generations each, migrating the best cfg.Migrants
// rules around a ring every cfg.MigrationInterval generations, and
// merges every island's valid rules into one RuleSet. Results are
// deterministic for any parallelism degree: islands advance in
// lockstep epochs and migration is applied serially in island order.
//
// The context is checked between migration epochs and, inside each
// island, between generations. On cancellation RunIslands returns
// promptly with BOTH a non-nil result — every island's best-so-far
// valid rules, merged — and ctx.Err(). Configuration errors still
// return a nil result.
func RunIslands(ctx context.Context, cfg IslandConfig, data *series.Dataset) (*IslandResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seeds := rng.New(cfg.Base.Seed).SplitN(cfg.Islands)
	islands := make([]*Execution, cfg.Islands)
	// All islands evolve against the same dataset; share one match
	// backend instead of building Islands copies.
	if cfg.Base.Runtime.Backend == nil {
		cfg.Base.Runtime.Backend = NewMatchIndex(data)
	}
	for i := range islands {
		c := cfg.Base
		c.Seed = seeds[i].Seed()
		c.Runtime.Workers = 1 // island-level parallelism only
		ex, err := NewExecution(ctx, c, data)
		if err != nil {
			// Cancelled while building islands (the initial evaluation
			// is ctx-bound): keep the documented cancellation contract
			// — a usable (here empty) result plus ctx.Err() — rather
			// than reporting the cancellation as a failure.
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				return &IslandResult{RuleSet: NewRuleSet(data.D)}, ctx.Err()
			}
			return nil, err
		}
		islands[i] = ex
	}

	res := &IslandResult{}
	remaining := cfg.Base.Generations
	for remaining > 0 && ctx.Err() == nil {
		epoch := cfg.MigrationInterval
		if epoch > remaining {
			epoch = remaining
		}
		// Evolve every island for one epoch, concurrently. Each island
		// checks the context between generations, so a cancelled run
		// abandons the epoch mid-flight (steps are atomic — every
		// island is left on a complete generation).
		parallel.For(cfg.Islands, cfg.Parallelism, func(i int) {
			for g := 0; g < epoch; g++ {
				if ctx.Err() != nil || islands[i].Eval.BackendErr() != nil {
					return
				}
				islands[i].Step(ctx)
			}
		})
		// A backend fault (a lost shard server) poisons every island —
		// they share the backend — so the whole run aborts: rules
		// evolved against a failing match path are not a best-so-far.
		for _, ex := range islands {
			if err := ex.Eval.BackendErr(); err != nil {
				return nil, err
			}
		}
		remaining -= epoch
		if cfg.OnProgress != nil {
			stop := false
			for i, ex := range islands {
				if !cfg.OnProgress(i, ex.snapshot()) {
					stop = true
				}
			}
			if stop {
				break
			}
		}
		if remaining <= 0 || ctx.Err() != nil {
			break
		}
		migrateRing(islands, cfg.Migrants)
		res.Migrations++
	}

	merged := NewRuleSet(data.D)
	for _, ex := range islands {
		ex.refreshStats()
		res.PerIsland = append(res.PerIsland, ex.Stats)
		merged.Add(ex.ValidRules()...)
	}
	res.RuleSet = merged
	return res, ctx.Err()
}

// migrateRing copies each island's top-k rules into the next island,
// replacing that island's k least-fit rules. Copies are deep clones so
// islands never share mutable state. The pass is serial and ordered,
// and every source snapshot is taken before any replacement, so the
// outcome is independent of goroutine scheduling.
func migrateRing(islands []*Execution, k int) {
	n := len(islands)
	// Snapshot emigrants first (so island i's emigrants are unaffected
	// by immigrants it receives in the same round).
	emigrants := make([][]*Rule, n)
	for i, ex := range islands {
		emigrants[i] = topK(ex.Pop, k)
	}
	for i := range islands {
		dst := islands[(i+1)%n]
		replaceWorst(dst.Pop, emigrants[i])
		// Immigrants change the population a speculative window was
		// simulated against.
		dst.endWindow()
	}
}

// topK returns deep clones of the k fittest rules.
func topK(pop []*Rule, k int) []*Rule {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: k is tiny compared to the population.
	for a := 0; a < k; a++ {
		best := a
		for b := a + 1; b < len(idx); b++ {
			if pop[idx[b]].Fitness > pop[idx[best]].Fitness {
				best = b
			}
		}
		idx[a], idx[best] = idx[best], idx[a]
	}
	out := make([]*Rule, k)
	for a := 0; a < k; a++ {
		out[a] = pop[idx[a]].Clone()
	}
	return out
}

// replaceWorst overwrites the least-fit len(migrants) rules in pop.
func replaceWorst(pop []*Rule, migrants []*Rule) {
	for _, m := range migrants {
		worst := 0
		for i, r := range pop {
			if r.Fitness < pop[worst].Fitness {
				worst = i
			}
		}
		if m.Fitness > pop[worst].Fitness {
			pop[worst] = m
		}
	}
}
