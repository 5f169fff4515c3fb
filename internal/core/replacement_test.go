package core

import (
	"context"

	"testing"
)

func TestReplacementKindString(t *testing.T) {
	for _, k := range []ReplacementKind{ReplaceNearest, ReplaceRandom, ReplaceWorst, ReplacementKind(42)} {
		if len(k.String()) == 0 {
			t.Fatalf("empty String for kind %d", int(k))
		}
	}
}

func TestReplacementStrategiesRun(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	for _, kind := range []ReplacementKind{ReplaceNearest, ReplaceRandom, ReplaceWorst} {
		cfg := quickConfig(3, 17)
		cfg.Replacement = kind
		ex, err := NewExecution(context.Background(), cfg, ds)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		ex.Run(context.Background(), 0, nil)
		if ex.Stats.Generations != cfg.Generations {
			t.Fatalf("%v: incomplete run", kind)
		}
		if len(ex.Pop) != cfg.PopSize {
			t.Fatalf("%v: population drifted to %d", kind, len(ex.Pop))
		}
	}
}

// Crowding is the diversity-preserving strategy: after identical
// budgets, the spread of rule predictions under crowding should be at
// least that of replace-worst (which collapses the population onto
// the densest region).
func TestCrowdingPreservesMoreDiversity(t *testing.T) {
	ds := sineDataset(t, 400, 3)
	spread := func(kind ReplacementKind) float64 {
		cfg := quickConfig(3, 23)
		cfg.Generations = 1500
		cfg.Replacement = kind
		ex, err := NewExecution(context.Background(), cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		ex.Run(context.Background(), 0, nil)
		min, max := ex.Pop[0].Prediction, ex.Pop[0].Prediction
		for _, r := range ex.Pop {
			if r.Prediction < min {
				min = r.Prediction
			}
			if r.Prediction > max {
				max = r.Prediction
			}
		}
		return max - min
	}
	crowd := spread(ReplaceNearest)
	worst := spread(ReplaceWorst)
	if crowd < worst*0.5 {
		t.Fatalf("crowding spread %v collapsed vs replace-worst %v", crowd, worst)
	}
}
