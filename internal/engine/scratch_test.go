package engine

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
)

// TestMatchBatchResultsCallerOwned pins the arena-escape contract of
// the pooled match scratch: the row sets MatchBatch returns are fresh
// allocations the caller owns outright. Scribbling over one call's
// results, then churning the worker pools with other batches, must not
// perturb any later call.
func TestMatchBatchResultsCallerOwned(t *testing.T) {
	ds := testDataset(t, 300, 4, false)
	s := New(ds, Options{})
	rules := randomRules(ds, 24, 3)
	ctx := context.Background()

	ref := core.NewEvaluator(ds, 1, 0, 1e-8, 1, core.EvalOptions{})
	want := make([][]int, len(rules))
	for i, r := range rules {
		want[i] = ref.MatchIndicesScan(r)
	}

	first := s.MatchBatch(ctx, rules)
	for i := range first {
		if !intsEqual(first[i], want[i]) {
			t.Fatalf("rule %d: MatchBatch disagrees with the scan before any scribbling", i)
		}
	}
	// The caller trashes its results — if any returned slice aliased
	// pooled scratch, the poison would surface in a later batch.
	for _, m := range first {
		for i := range m {
			m[i] = -12345
		}
	}
	s.MatchBatch(ctx, randomRules(ds, 24, 99)) // churn the pools
	second := s.MatchBatch(ctx, rules)
	for i := range second {
		if !intsEqual(second[i], want[i]) {
			t.Fatalf("rule %d: results after scribble+churn diverged from the scan — pooled scratch escaped into a caller-visible slice", i)
		}
	}
}

// TestSharedCacheEntriesUnaliased is the regression test the scratch
// redesign requires: no pooled buffer (match sets, regression gather
// arrays, normal-equation scratch) may be reachable from a result
// cache entry. Callers scribble over every result they were handed,
// worker pools are churned with unrelated evaluations, and a mutation
// epoch expires the cache — cached replays and fresh computations must
// stay bit-identical to an independent sequential evaluator
// throughout.
func TestSharedCacheEntriesUnaliased(t *testing.T) {
	const emax, fmin, ridge = 0.7, 0.0, 1e-8
	ds := testDataset(t, 300, 4, false)
	eng := New(ds, Options{})
	ev := core.NewEvaluator(ds, emax, fmin, ridge, 1,
		core.EvalOptions{Backend: eng})
	rules := randomRules(ds, 16, 5)
	ctx := context.Background()

	want := cloneAll(rules)
	ref := core.NewEvaluator(ds, emax, fmin, ridge, 1, core.EvalOptions{})
	for _, r := range want {
		ref.Evaluate(context.Background(), r)
	}

	got := cloneAll(rules)
	ev.EvaluateAll(ctx, got)
	for i := range got {
		requireIdentical(t, "fill", i, got[i], want[i])
	}
	scribble := func(batch []*core.Rule) {
		for _, r := range batch {
			if r.Fit != nil {
				for j := range r.Fit.Coef {
					r.Fit.Coef[j] = math.Inf(-1)
				}
				r.Fit.Intercept = math.NaN()
			}
			r.Prediction, r.Error, r.Fitness = -1e300, -1e300, -1e300
		}
	}
	scribble(got)
	ev.EvaluateAll(ctx, cloneAll(randomRules(ds, 32, 77))) // churn the pools

	// Cache replay: if an entry shared storage with the scribbled
	// results or the churned scratch, the replay would carry poison.
	replay := cloneAll(rules)
	ev.EvaluateAll(ctx, replay)
	for i := range replay {
		requireIdentical(t, "replay", i, replay[i], want[i])
	}
	scribble(replay)

	// Mutation epoch: every cached entry expires and every evaluation
	// recomputes through the same pooled scratch.
	if err := eng.Append([][]float64{ds.Inputs[0]}, []float64{ds.Targets[0]}); err != nil {
		t.Fatal(err)
	}
	grown := core.NewEvaluator(eng.Data(), emax, fmin, ridge, 1, core.EvalOptions{})
	want2 := cloneAll(rules)
	for _, r := range want2 {
		grown.Evaluate(context.Background(), r)
	}
	after := cloneAll(rules)
	ev.EvaluateAll(ctx, after)
	for i := range after {
		requireIdentical(t, "post-epoch", i, after[i], want2[i])
	}

	// And one more replay from the repopulated cache, after all the
	// scribbling this test has done.
	again := cloneAll(rules)
	ev.EvaluateAll(ctx, again)
	for i := range again {
		requireIdentical(t, "post-epoch replay", i, again[i], want2[i])
	}
}
