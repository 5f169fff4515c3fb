package core

import (
	"context"
	"testing"
	"time"
)

// Cancellation semantics: every long-running loop (execution steps,
// multi-run waves, island epochs) must return promptly once its
// context is cancelled, leaving a valid best-so-far snapshot — never
// a torn population. CI runs these under -race.

func TestRunCancelledMidway(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := quickConfig(3, 41)
	cfg.Generations = 1 << 30 // would run ~forever without cancellation

	ex, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := ex.Run(ctx, 0, nil); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Run took %v to honour cancellation", d)
	}
	if ex.Stats.Generations == 0 || ex.Stats.Generations >= cfg.Generations {
		t.Fatalf("generations = %d, want mid-run", ex.Stats.Generations)
	}
	// The population is a valid snapshot: refreshStats ran, and every
	// rule carries a complete evaluation.
	if ex.Stats.MeanFitness == 0 && ex.Stats.BestFitness == 0 {
		t.Fatal("stats were not refreshed on cancellation")
	}
	for i, r := range ex.Pop {
		if r == nil {
			t.Fatalf("population slot %d is nil after cancellation", i)
		}
	}
}

func TestRunPreCancelled(t *testing.T) {
	ds := sineDataset(t, 200, 3)
	ex, err := NewExecution(context.Background(), quickConfig(3, 42), ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ex.Run(ctx, 0, nil); err != context.Canceled {
		t.Fatalf("Run returned %v", err)
	}
	if ex.Stats.Generations != 0 {
		t.Fatalf("pre-cancelled Run still ran %d generations", ex.Stats.Generations)
	}
}

func TestMultiRunCancelledReturnsBestSoFar(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := multiRunConfig(3)
	cfg.Base.Generations = 1 << 30
	cfg.MaxExecutions = 2
	cfg.Parallelism = 2
	// Deterministic trigger: cancel from the first progress snapshot,
	// so the cancel fires while both executions are mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	cfg.ProgressEvery = 50
	cfg.OnProgress = func(int, Progress) bool {
		cancel()
		return true
	}
	res, err := MultiRun(ctx, cfg, ds)
	if err != context.Canceled {
		t.Fatalf("MultiRun returned %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled MultiRun returned a nil result")
	}
	if len(res.Executions) != 2 {
		t.Fatalf("wave results: %d executions recorded, want 2", len(res.Executions))
	}
	for i, st := range res.Executions {
		if st.Generations >= cfg.Base.Generations {
			t.Fatalf("execution %d ran to completion despite cancellation", i)
		}
	}
	// The accumulated system is usable (it may legitimately be empty
	// if no rule cleared the fitness gate that early, but the RuleSet
	// itself must exist and answer queries).
	res.RuleSet.Coverage(ds)
}

func TestRunIslandsCancelledReturnsBestSoFar(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := islandConfig(3, 17)
	cfg.Base.Generations = 1 << 20
	cfg.MigrationInterval = 100 // frequent epochs → prompt OnProgress
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnProgress = func(int, Progress) bool {
		cancel()
		return true
	}
	res, err := RunIslands(ctx, cfg, ds)
	if err != context.Canceled {
		t.Fatalf("RunIslands returned %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled RunIslands returned a nil result")
	}
	if len(res.PerIsland) != cfg.Islands {
		t.Fatalf("per-island stats: %d, want %d", len(res.PerIsland), cfg.Islands)
	}
	for i, st := range res.PerIsland {
		if st.Generations >= cfg.Base.Generations {
			t.Fatalf("island %d ran to completion despite cancellation", i)
		}
	}
	res.RuleSet.Coverage(ds)
}

// TestIslandProgressEarlyStop: an OnProgress veto ends the run after
// the current epoch without an error — distinct from cancellation.
func TestIslandProgressEarlyStop(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := islandConfig(3, 23)
	cfg.Base.Generations = 5000
	cfg.MigrationInterval = 100
	calls := 0
	cfg.OnProgress = func(int, Progress) bool {
		calls++
		return false
	}
	res, err := RunIslands(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if calls != cfg.Islands {
		t.Fatalf("OnProgress calls = %d, want one per island", calls)
	}
	for i, st := range res.PerIsland {
		if st.Generations != cfg.MigrationInterval {
			t.Fatalf("island %d ran %d generations, want one epoch (%d)",
				i, st.Generations, cfg.MigrationInterval)
		}
	}
}
