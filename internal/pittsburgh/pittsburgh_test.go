package pittsburgh

import (
	"context"

	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/series"
)

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

func tinyConfig(seed int64) Config {
	cfg := Default()
	cfg.RulesPerSet = 10
	cfg.PopSize = 10
	cfg.Generations = 8
	cfg.Seed = seed
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := Default()
	if err := good.Validate(); err != nil {
		t.Fatalf("default rejected: %v", err)
	}
	good.Backend = core.NewMatchIndex(sineDataset(t, 200, 3))
	if err := good.Validate(); err != nil {
		t.Fatalf("Backend rejected: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.RulesPerSet = 0 },
		func(c *Config) { c.PopSize = 1 },
		func(c *Config) { c.Generations = 0 },
		func(c *Config) { c.TournamentK = 0 },
		func(c *Config) { c.CrossoverP = 1.5 },
		func(c *Config) { c.MutationRate = -0.1 },
		func(c *Config) { c.MutationSpan = 0 },
		func(c *Config) { c.Elitism = -1 },
		func(c *Config) { c.Elitism = 99 },
		func(c *Config) { c.CoverWeight = 2 },
	}
	for i, m := range mut {
		c := Default()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestRunProducesWorkingRuleSet(t *testing.T) {
	ds := sineDataset(t, 400, 3)
	res, err := Run(context.Background(), tinyConfig(3), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleSet.Len() == 0 {
		t.Fatal("empty best rule set")
	}
	if res.BestFitness <= 0 || res.BestFitness > 1 {
		t.Fatalf("fitness %v outside (0,1]", res.BestFitness)
	}
	if len(res.History) != 8 {
		t.Fatalf("history length %d", len(res.History))
	}
	// The best set must predict a decent share of the training data.
	covered := 0
	for _, pattern := range ds.Inputs {
		if _, ok := res.RuleSet.Predict(pattern); ok {
			covered++
		}
	}
	if float64(covered)/float64(ds.Len()) < 0.3 {
		t.Fatalf("best set covers only %d/%d patterns", covered, ds.Len())
	}
}

func TestRunErrors(t *testing.T) {
	ds := sineDataset(t, 200, 3)
	bad := tinyConfig(1)
	bad.PopSize = 0
	if _, err := Run(context.Background(), bad, ds); err == nil {
		t.Fatal("bad config accepted")
	}
	empty := &series.Dataset{D: 3, Horizon: 1}
	if _, err := Run(context.Background(), tinyConfig(1), empty); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestElitismMonotoneBestFitness(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := tinyConfig(7)
	cfg.Generations = 15
	res, err := Run(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g < len(res.History); g++ {
		if res.History[g] < res.History[g-1]-1e-9 {
			t.Fatalf("best fitness dropped at generation %d: %v -> %v (elitism broken)",
				g, res.History[g-1], res.History[g])
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	ds := sineDataset(t, 250, 3)
	a, err := Run(context.Background(), tinyConfig(9), ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), tinyConfig(9), ds)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness != b.BestFitness {
		t.Fatalf("same seed diverged: %v vs %v", a.BestFitness, b.BestFitness)
	}
	c, err := Run(context.Background(), tinyConfig(10), ds)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness == c.BestFitness && len(a.History) == len(c.History) {
		same := true
		for i := range a.History {
			if a.History[i] != c.History[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical trajectories")
		}
	}
}

func TestCrossoverSetsProvenance(t *testing.T) {
	ds := sineDataset(t, 200, 3)
	cfg := tinyConfig(11)
	eval := newSetEvaluator(ds, cfg.CoverWeight, core.EvalOptions{})
	_ = eval
	// Build two marked parents.
	a := &individual{}
	b := &individual{}
	for i := 0; i < 6; i++ {
		ra := sampleRule(3, float64(i))
		rb := sampleRule(3, float64(100+i))
		a.rules = append(a.rules, ra)
		b.rules = append(b.rules, rb)
	}
	src := newSrc(5)
	child := crossoverSets(a, b, src)
	if len(child.rules) != 6 {
		t.Fatalf("child has %d rules", len(child.rules))
	}
	sawA, sawB := false, false
	for i, r := range child.rules {
		switch r.Prediction {
		case a.rules[i].Prediction:
			sawA = true
		case b.rules[i].Prediction:
			sawB = true
		default:
			t.Fatalf("rule %d from neither parent", i)
		}
	}
	if !sawA || !sawB {
		t.Fatal("one-point crossover did not mix parents")
	}
}
