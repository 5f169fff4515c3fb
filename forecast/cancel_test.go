package forecast

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// Facade cancellation contract: a Fit cancelled mid-run returns
// ctx.Err() promptly, installs the best-so-far system (so the
// Forecaster stays usable), and leaks nothing from the engine
// fan-out. CI runs this under -race.

func TestFitCancelledInstallsBestSoFar(t *testing.T) {
	ds := sineDataset(t, 400, 3)
	ctx, cancel := context.WithCancel(context.Background())
	f, err := New(
		WithMultiRun(2),
		WithParallelism(2), // both executions in flight when the cancel fires
		WithPopulation(24),
		WithGenerations(1<<30), // would run ~forever without cancellation
		WithSeed(13),
		WithEngine(0),
		// Deterministic trigger: cancel from the first progress
		// snapshot, while every execution is mid-run.
		WithProgress(50, func(Progress) bool {
			cancel()
			return true
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	start := time.Now()
	if err := f.Fit(ctx, ds); err != context.Canceled {
		t.Fatalf("Fit returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("Fit took %v to honour cancellation", d)
	}

	// Best-so-far system installed and usable.
	if !f.Fitted() {
		t.Fatal("cancelled Fit did not install the best-so-far system")
	}
	if st := f.Stats(); st.Executions != 2 || st.Generations == 0 {
		t.Fatalf("stats %+v: want 2 partial executions with progress", st)
	}
	f.PredictDataset(ds) // must not panic; abstention is fine

	// The engine fan-out must have drained.
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d at baseline, %d now", baseline, runtime.NumGoroutine())
}

func TestFitPreCancelledKeepsPreviousSystem(t *testing.T) {
	ds := sineDataset(t, 200, 3)
	f, err := New(WithPopulation(12), WithGenerations(60), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	prev := f.RuleSet()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Fit(ctx, ds); err != context.Canceled {
		t.Fatalf("pre-cancelled Fit returned %v", err)
	}
	if f.RuleSet() != prev {
		t.Fatal("pre-cancelled Fit (nothing ran) replaced the previous system")
	}
}

func TestAppendCancelledKeepsDataMutation(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	f, err := New(
		WithEngine(0),
		WithSlidingWindow(200),
		WithPopulation(12),
		WithGenerations(60),
		WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	prevRules := f.RuleSet()

	inputs := [][]float64{{0.1, 0.2, 0.3}, {0.2, 0.3, 0.4}}
	targets := []float64{0.4, 0.5}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Append(ctx, inputs, targets); err != context.Canceled {
		t.Fatalf("Append returned %v, want context.Canceled", err)
	}
	// The data mutation is documented as not rolled back: the window
	// absorbed the chunk even though the refit was cancelled, and the
	// previous rule system keeps serving predictions.
	if live := f.Data().Len(); live != 200 {
		t.Fatalf("window after cancelled Append: %d, want 200", live)
	}
	if f.RuleSet() != prevRules {
		t.Fatal("cancelled refit replaced the rule system")
	}
}
