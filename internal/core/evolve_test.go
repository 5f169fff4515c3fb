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
	ex.Run(context.Background())
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
		ex.Run(context.Background())
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
	ex.Run(context.Background())
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
	ex.Run(context.Background())
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
	ex.Run(context.Background())
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

// ctxBackend stands in for a context-aware (networked) backend.
type ctxBackend struct{}

func (ctxBackend) MatchIndicesCtx(context.Context, *Rule) []int { return nil }

// TestSpeculationGate: in process, an execution speculates exactly when
// its initial population's estimated regression work — mean matched
// rows times (D+1)² — reaches specMinWork, at any worker count; over a
// context-aware backend it always does.
func TestSpeculationGate(t *testing.T) {
	pop := func(matches ...int) []*Rule {
		out := make([]*Rule, len(matches))
		for i, m := range matches {
			out[i] = &Rule{Matches: m}
		}
		return out
	}
	at := int(math.Ceil(specMinWork / 25)) // fewest mean rows that reach it at D=4
	ex := &Execution{Config: Config{D: 4}, Eval: &Evaluator{}}
	for _, c := range []struct {
		pop  []*Rule
		want bool
	}{
		{pop(at, at), true},
		{pop(2*at, 0), true},
		{pop(at-1, at-1), false},
		{pop(0, 0), false},
	} {
		ex.Pop = c.pop
		if got := ex.batchPays(); got != c.want {
			t.Fatalf("in process, matches %d and %d at D=4: batchPays %v, want %v", c.pop[0].Matches, c.pop[1].Matches, got, c.want)
		}
	}
	ex.Pop, ex.Eval.backendCtx = pop(0, 0), ctxBackend{}
	if !ex.batchPays() {
		t.Fatal("a context-aware backend must always speculate")
	}

	// End to end: Venice at D=24 has dear regressions, a small sine
	// fit at D=4 cheap ones.
	train, _, err := series.VenicePaper(1500, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	venice, err := series.Window(train, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		for _, c := range []struct {
			name string
			data *series.Dataset
			want bool
		}{{"venice D=24", venice, true}, {"sine D=4", sineDataset(t, 300, 4), false}} {
			cfg := quickConfig(c.data.D, 3)
			cfg.PopSize = 100
			cfg.Runtime.Workers = workers
			ex, err := NewExecution(context.Background(), cfg, c.data)
			if err != nil {
				t.Fatal(err)
			}
			if ex.spec != c.want {
				t.Fatalf("%s on %d workers: speculates %v, want %v", c.name, workers, ex.spec, c.want)
			}
		}
	}
}
