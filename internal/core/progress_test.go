package core

import (
	"context"
	"testing"
)

func TestRunWithProgressCallbackCadence(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := quickConfig(3, 61)
	cfg.Generations = 100
	ex, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	ex.Run(context.Background(), 25, func(p Progress) bool {
		calls = append(calls, p.Generation)
		return true
	})
	// Callbacks at 25, 50, 75, 100 plus the final snapshot (also 100).
	if len(calls) != 5 {
		t.Fatalf("callback count %d: %v", len(calls), calls)
	}
	if calls[0] != 25 || calls[3] != 100 || calls[4] != 100 {
		t.Fatalf("callback generations %v", calls)
	}
	if ex.Stats.Generations != 100 {
		t.Fatalf("ran %d generations", ex.Stats.Generations)
	}
}

func TestRunWithProgressEarlyStop(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := quickConfig(3, 62)
	cfg.Generations = 1000
	ex, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	ex.Run(context.Background(), 10, func(p Progress) bool {
		return p.Generation < 50 // stop at the 50-generation snapshot
	})
	if ex.Stats.Generations != 50 {
		t.Fatalf("early stop ran %d generations, want 50", ex.Stats.Generations)
	}
}

func TestRunWithProgressMonotoneBest(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := quickConfig(3, 63)
	cfg.Generations = 200
	ex, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1e300
	ex.Run(context.Background(), 20, func(p Progress) bool {
		if p.BestFitness < prev-1e-9 {
			t.Fatalf("best fitness dropped: %v -> %v", prev, p.BestFitness)
		}
		prev = p.BestFitness
		return true
	})
}

func TestRunWithProgressClampsEvery(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := quickConfig(3, 64)
	cfg.Generations = 5
	ex, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	ex.Run(context.Background(), 0, func(Progress) bool { calls++; return true })
	if calls != 6 { // every generation + final
		t.Fatalf("calls = %d, want 6", calls)
	}
}
