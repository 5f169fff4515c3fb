package core

import (
	"testing"

	"repro/internal/series"
)

func waveDataset(t *testing.T, n, d int) *series.Dataset {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		// A rich but deterministic shape with a wide target range.
		v[i] = 50*float64(i%17)/17 + 30*float64(i%5)/5
	}
	ds, err := series.Window(series.New("wave", v), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestInitStratifiedShapeAndPriors(t *testing.T) {
	ds := waveDataset(t, 300, 4)
	pop := InitStratified(ds, 20)
	if len(pop) != 20 {
		t.Fatalf("population size %d", len(pop))
	}
	lo, hi := ds.TargetRange()
	width := (hi - lo) / 20
	for b, r := range pop {
		if r.D() != 4 {
			t.Fatalf("rule %d has D=%d", b, r.D())
		}
		binLo := lo + float64(b)*width
		binHi := binLo + width
		// The prior prediction is the bin's mean target (or center for
		// empty bins) — either way it lies inside the bin.
		if r.Prediction < binLo-1e-9 || r.Prediction > binHi+1e-9 {
			t.Fatalf("rule %d prior %v outside bin [%v,%v]", b, r.Prediction, binLo, binHi)
		}
	}
}

// The key §3.2 property: each bin's rule matches every training
// pattern whose target falls in that bin (intervals are per-lag
// min/max over exactly those patterns).
func TestInitStratifiedCoversOwnBin(t *testing.T) {
	ds := waveDataset(t, 300, 4)
	const popSize = 15
	pop := InitStratified(ds, popSize)
	lo, hi := ds.TargetRange()
	width := (hi - lo) / popSize
	for i, target := range ds.Targets {
		b := int((target - lo) / width)
		if b >= popSize {
			b = popSize - 1
		}
		if !pop[b].Match(ds.Inputs[i]) {
			t.Fatalf("pattern %d (target %v) not matched by its bin rule %d", i, target, b)
		}
	}
}

// Together the initial rules must cover the whole training set — the
// initializer's purpose is full prediction-space coverage.
func TestInitStratifiedFullCoverage(t *testing.T) {
	ds := waveDataset(t, 300, 4)
	pop := InitStratified(ds, 10)
	for i := range ds.Inputs {
		matched := false
		for _, r := range pop {
			if r.Match(ds.Inputs[i]) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("pattern %d uncovered by the initial population", i)
		}
	}
}

func TestInitStratifiedConstantTargets(t *testing.T) {
	v := make([]float64, 50)
	for i := range v {
		v[i] = 5
	}
	ds, err := series.Window(series.New("const", v), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pop := InitStratified(ds, 5)
	if len(pop) != 5 {
		t.Fatalf("population size %d", len(pop))
	}
	// Constant series: at least the first bin's rule matches everything.
	if !pop[0].Match(ds.Inputs[0]) {
		t.Fatal("constant-series rule does not match")
	}
}
