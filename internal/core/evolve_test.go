package core

import (
	"context"

	"errors"
	"math"
	"testing"

	"repro/internal/series"
)

// sineDataset is a smooth, learnable workload for evolution tests.
func sineDataset(t *testing.T, n, d int) *series.Dataset {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.3*math.Sin(2*math.Pi*float64(i)/13)
	}
	ds, err := series.Window(series.New("sine", v), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func quickConfig(d int, seed int64) Config {
	cfg := Default(d)
	cfg.PopSize = 30
	cfg.Generations = 400
	cfg.Seed = seed
	cfg.Runtime.Workers = 1
	return cfg
}

func TestNewExecutionValidates(t *testing.T) {
	ds := sineDataset(t, 200, 4)
	bad := quickConfig(5, 1) // D mismatch
	if _, err := NewExecution(context.Background(), bad, ds); !errors.Is(err, ErrConfig) {
		t.Fatalf("D mismatch accepted: %v", err)
	}
	bad = quickConfig(4, 1)
	bad.PopSize = 1
	if _, err := NewExecution(context.Background(), bad, ds); !errors.Is(err, ErrConfig) {
		t.Fatal("PopSize=1 accepted")
	}
}

func TestEMaxAutoResolution(t *testing.T) {
	ds := sineDataset(t, 200, 4)
	ex, err := NewExecution(context.Background(), quickConfig(4, 1), ds)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ds.TargetRange()
	want := 0.1 * (hi - lo)
	if math.Abs(ex.Stats.EMaxResolved-want) > 1e-12 {
		t.Fatalf("EMax resolved to %v, want %v", ex.Stats.EMaxResolved, want)
	}
	// Explicit EMax wins.
	cfg := quickConfig(4, 1)
	cfg.EMax = 0.42
	ex2, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Stats.EMaxResolved != 0.42 {
		t.Fatalf("explicit EMax overridden: %v", ex2.Stats.EMaxResolved)
	}
}

func TestEvolutionImprovesMeanFitness(t *testing.T) {
	ds := sineDataset(t, 400, 4)
	ex, err := NewExecution(context.Background(), quickConfig(4, 7), ds)
	if err != nil {
		t.Fatal(err)
	}
	ex.refreshStats()
	before := ex.Stats.MeanFitness
	ex.Run(context.Background(), 0, nil)
	if ex.Stats.MeanFitness < before {
		t.Fatalf("mean fitness fell: %v -> %v", before, ex.Stats.MeanFitness)
	}
	if ex.Stats.Replacements == 0 {
		t.Fatal("no offspring ever entered the population")
	}
	if ex.Stats.Generations != 400 {
		t.Fatalf("generations = %d", ex.Stats.Generations)
	}
}

// Crowding invariant: replacement only happens when the offspring is
// fitter than the displaced individual, so the population's best
// fitness never decreases.
func TestCrowdingNeverLosesBest(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := quickConfig(3, 11)
	ex, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	best := func() float64 {
		b := math.Inf(-1)
		for _, r := range ex.Pop {
			if r.Fitness > b {
				b = r.Fitness
			}
		}
		return b
	}
	prev := best()
	for g := 0; g < 300; g++ {
		ex.Step(context.Background())
		cur := best()
		if cur < prev-1e-9 {
			t.Fatalf("best fitness dropped at generation %d: %v -> %v", g, prev, cur)
		}
		prev = cur
	}
}

func TestPopulationSizeConstant(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	ex, err := NewExecution(context.Background(), quickConfig(3, 13), ds)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 200; g++ {
		ex.Step(context.Background())
		if len(ex.Pop) != 30 {
			t.Fatalf("steady state violated: population %d at generation %d", len(ex.Pop), g)
		}
	}
}

func TestExecutionDeterministicPerSeed(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	run := func(seed int64) []float64 {
		ex, err := NewExecution(context.Background(), quickConfig(3, seed), ds)
		if err != nil {
			t.Fatal(err)
		}
		ex.Run(context.Background(), 0, nil)
		out := make([]float64, len(ex.Pop))
		for i, r := range ex.Pop {
			out[i] = r.Fitness
		}
		return out
	}
	a, b := run(21), run(21)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at rule %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(22)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestValidRulesFiltered(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	ex, err := NewExecution(context.Background(), quickConfig(3, 31), ds)
	if err != nil {
		t.Fatal(err)
	}
	ex.Run(context.Background(), 0, nil)
	for _, r := range ex.ValidRules() {
		if r.Fitness <= ex.Config.FMin {
			t.Fatalf("floor-fitness rule leaked: %+v", r)
		}
		if !r.Fitted() {
			t.Fatal("unfitted rule leaked")
		}
	}
}

func TestMutationOnlyReproductionPath(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := quickConfig(3, 41)
	cfg.CrossoverRate = 0 // force the clone+mutate path
	ex, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	ex.Run(context.Background(), 0, nil)
	if ex.Stats.Generations != cfg.Generations {
		t.Fatal("mutation-only run did not complete")
	}
}

func TestEvolvedSystemPredictsSine(t *testing.T) {
	// End-to-end at tiny scale: the evolved rules must beat the mean
	// predictor on held-out data where they speak.
	dsAll := sineDataset(t, 700, 4)
	train, test := dsAll.Split(500)
	cfg := quickConfig(4, 55)
	cfg.Generations = 3000
	ex, err := NewExecution(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	ex.Run(context.Background(), 0, nil)
	rs := NewRuleSet(4)
	rs.Add(ex.ValidRules()...)
	if rs.Len() == 0 {
		t.Fatal("no valid rules evolved")
	}
	var se, count, meanBase float64
	for _, v := range train.Targets {
		meanBase += v
	}
	meanBase /= float64(train.Len())
	var seMean float64
	for i, pattern := range test.Inputs {
		v, ok := rs.Predict(pattern)
		if !ok {
			continue
		}
		d := v - test.Targets[i]
		se += d * d
		dm := meanBase - test.Targets[i]
		seMean += dm * dm
		count++
	}
	if count == 0 {
		t.Fatal("rule system abstained on every test pattern")
	}
	if se/count >= seMean/count {
		t.Fatalf("evolved rules (MSE %v over %v pts) no better than mean predictor (MSE %v)",
			se/count, count, seMean/count)
	}
}

// TestSpeculationGate: an execution speculates exactly when its
// backend is context-aware (BackendCtx, as a networked backend is),
// at any worker count, and never in process — its own index or an
// adopted MatchIndex — however dear its regressions.
func TestSpeculationGate(t *testing.T) {
	train, _, err := series.VenicePaper(1500, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	venice, err := series.Window(train, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range []*series.Dataset{venice, sineDataset(t, 300, 4)} {
		for _, workers := range []int{1, 2} {
			for _, c := range []struct {
				name    string
				backend Backend
				want    bool
			}{
				{"own index", nil, false},
				{"adopted index", NewMatchIndex(data), false},
				{"context-aware index", NewCtxIndex(data), true},
			} {
				cfg := quickConfig(data.D, 3)
				cfg.PopSize = 100
				cfg.Runtime.Workers = workers
				cfg.Runtime.Backend = c.backend
				ex, err := NewExecution(context.Background(), cfg, data)
				if err != nil {
					t.Fatal(err)
				}
				if ex.spec != c.want {
					t.Fatalf("%s at D=%d on %d workers: speculates %v, want %v", c.name, data.D, workers, ex.spec, c.want)
				}
			}
		}
	}
}

// TestCannotEnterBound pins the pruning gate's fitness bound U on a
// population whose every rule has fitness 5 (EMAX 1): a child matching
// M rows is dropped only when U = f_min (M ≤ 1) or max(M·EMAX, f_min)
// (M ≥ 2) is at most 5, under every replacement and distance kind but
// crowding by the hybrid distance, and never when U is NaN.
func TestCannotEnterBound(t *testing.T) {
	ds := sineDataset(t, 200, 4)
	kinds := []struct {
		name string
		set  func(*Config)
	}{
		{"nearest-prediction", func(*Config) {}},
		{"nearest-overlap", func(c *Config) { c.Distance = DistanceOverlap }},
		{"nearest-hybrid", func(c *Config) { c.Distance = DistanceHybrid }},
		{"random", func(c *Config) { c.Replacement = ReplaceRandom }},
		{"worst", func(c *Config) { c.Replacement = ReplaceWorst }},
	}
	for _, k := range kinds {
		for _, c := range []struct {
			emax, fmin float64
			m          int
			want       bool
		}{
			{1, 0, 0, true}, {1, 0, 1, true}, {1, 0, 2, true}, {1, 0, 5, true}, {1, 0, 6, false},
			{1, 5, 1, true}, {1, 5, 2, true}, {1, 10, 0, false}, {1, 10, 1, false}, {1, 10, 2, false},
			{math.NaN(), 0, 2, false},
		} {
			cfg := quickConfig(4, 1)
			cfg.EMax, cfg.FMin = c.emax, c.fmin
			k.set(&cfg)
			ex, err := NewExecution(context.Background(), cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ex.Pop {
				r.Fitness = 5
			}
			idx := make([]int, c.m)
			for i := range idx {
				idx[i] = i
			}
			want := c.want && cfg.Distance != DistanceHybrid
			if got := ex.cannotEnter(ex.Pop[0].Clone(), 0, idx); got != want {
				t.Errorf("%s, EMAX %v, f_min %v, M=%d: cannotEnter %v, want %v", k.name, c.emax, c.fmin, c.m, got, want)
			}
		}
	}
}
