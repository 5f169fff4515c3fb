package engine

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// Cancellation semantics of a batch: a cancelled context stops
// MatchBatch between rules, no goroutine outlives the call, and
// nothing from a cancelled batch is ever cached or applied. CI runs
// these under -race.

// settleGoroutines waits for the goroutine count to return to (or
// below) the baseline, failing the test if it never does.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d at baseline, %d now", baseline, runtime.NumGoroutine())
}

func TestMatchBatchPreCancelledLeavesNoGoroutines(t *testing.T) {
	ds := testDataset(t, 4096, 4, false)
	eng := New(ds, Options{})
	rules := randomRules(ds, 64, 1)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := eng.MatchBatch(ctx, rules)
	if len(out) != len(rules) {
		t.Fatalf("out length %d, want %d (incomplete but shaped)", len(out), len(rules))
	}
	settleGoroutines(t, baseline)

	// Sanity: the same batch with a live context is complete.
	full := eng.MatchBatch(context.Background(), rules)
	for i, m := range full {
		want := eng.MatchIndices(rules[i])
		if len(m) != len(want) {
			t.Fatalf("rule %d: batch %d matches, per-rule %d", i, len(m), len(want))
		}
	}
}

func TestMatchBatchCancelledMidwayLeavesNoGoroutines(t *testing.T) {
	ds := testDataset(t, 8192, 4, false)
	eng := New(ds, Options{})
	rules := randomRules(ds, 256, 2)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.MatchBatch(ctx, rules)
	}()
	time.Sleep(time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("MatchBatch did not return after cancellation")
	}
	settleGoroutines(t, baseline)
}

// TestEvaluateBatchCancelledDiscardsEverything: an EvaluateAll batch cut short by
// its context must neither cache nor apply partial results — the
// rules keep their prior evaluations and the next batch finds nothing
// in the evaluator's cache.
func TestEvaluateBatchCancelledDiscardsEverything(t *testing.T) {
	ds := testDataset(t, 2048, 3, false)
	eng := New(ds, Options{})
	ev := core.NewEvaluator(ds, 0.5, 0, 1e-8, 2, core.EvalOptions{Backend: eng})

	rules := randomRules(ds, 32, 3)
	sentinel := -12345.0
	for _, r := range rules {
		r.Fitness = sentinel
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ev.EvaluateAll(ctx, rules); err != context.Canceled {
		t.Fatalf("EvaluateAll returned %v, want context.Canceled", err)
	}
	for i, r := range rules {
		if r.Fitness != sentinel {
			t.Fatalf("rule %d was mutated by a cancelled batch (fitness %v)", i, r.Fitness)
		}
	}

	// The same batch under a live context evaluates normally and is
	// bit-identical to per-rule evaluation.
	if err := ev.EvaluateAll(context.Background(), rules); err != nil {
		t.Fatal(err)
	}
	if hits, _ := ev.CacheStats(); hits != 0 {
		t.Fatalf("%d cache entries survived a cancelled batch", hits)
	}
	for i, r := range rules {
		if r.Fitness == sentinel {
			t.Fatalf("rule %d still carries the sentinel after a live batch", i)
		}
	}
}
