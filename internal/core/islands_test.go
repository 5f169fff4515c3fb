package core

import (
	"context"

	"errors"
	"testing"
)

func islandConfig(d int, seed int64) IslandConfig {
	base := Default(d)
	base.PopSize = 20
	base.Generations = 300
	base.Seed = seed
	base.Runtime.Workers = 1
	return IslandConfig{
		Base:              base,
		Islands:           3,
		MigrationInterval: 50,
		Migrants:          2,
		Parallelism:       1,
	}
}

func TestIslandConfigValidate(t *testing.T) {
	cfg := islandConfig(3, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := islandConfig(3, 1)
	bad.Islands = 1
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("Islands=1 accepted")
	}
	bad = islandConfig(3, 1)
	bad.MigrationInterval = 0
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("MigrationInterval=0 accepted")
	}
	bad = islandConfig(3, 1)
	bad.Migrants = 0
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("Migrants=0 accepted")
	}
	bad = islandConfig(3, 1)
	bad.Migrants = bad.Base.PopSize
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("Migrants=PopSize accepted")
	}
	bad = islandConfig(3, 1)
	bad.Parallelism = -1
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("negative Parallelism accepted")
	}
	bad = islandConfig(3, 1)
	bad.Base.PopSize = 1
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("bad base accepted")
	}
}

func TestRunIslandsProducesRules(t *testing.T) {
	ds := sineDataset(t, 400, 3)
	res, err := RunIslands(context.Background(), islandConfig(3, 5), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleSet.Len() == 0 {
		t.Fatal("no rules merged")
	}
	if len(res.PerIsland) != 3 {
		t.Fatalf("per-island stats: %d", len(res.PerIsland))
	}
	// 300 generations at interval 50 → 5 migrations (none after the
	// final epoch).
	if res.Migrations != 5 {
		t.Fatalf("migrations = %d, want 5", res.Migrations)
	}
	for i, st := range res.PerIsland {
		if st.Generations != 300 {
			t.Fatalf("island %d ran %d generations", i, st.Generations)
		}
	}
}

func TestRunIslandsDeterministicAcrossParallelism(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	run := func(par int) *IslandResult {
		cfg := islandConfig(3, 11)
		cfg.Parallelism = par
		res, err := RunIslands(context.Background(), cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(3)
	if a.RuleSet.Len() != b.RuleSet.Len() {
		t.Fatalf("parallelism changed merged size: %d vs %d", a.RuleSet.Len(), b.RuleSet.Len())
	}
	for i := range a.RuleSet.Rules {
		ra, rb := a.RuleSet.Rules[i], b.RuleSet.Rules[i]
		if ra.Fitness != rb.Fitness || ra.Prediction != rb.Prediction {
			t.Fatalf("rule %d differs across parallelism", i)
		}
	}
}

func TestMigrationSpreadsBestRules(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	cfg := islandConfig(3, 21)
	ex1, err := NewExecution(context.Background(), withSeed(cfg.Base, 1), ds)
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := NewExecution(context.Background(), withSeed(cfg.Base, 2), ds)
	if err != nil {
		t.Fatal(err)
	}
	// Boost one rule of ex1 artificially.
	star := ex1.Pop[0]
	star.Fitness = 1e12
	islands := []*Execution{ex1, ex2}
	migrateRing(islands, 1)
	found := false
	for _, r := range ex2.Pop {
		if r.Fitness == 1e12 {
			found = true
			if r == star {
				t.Fatal("migration shared the rule pointer instead of cloning")
			}
		}
	}
	if !found {
		t.Fatal("best rule did not migrate")
	}
	// The source still has its star.
	if ex1.Pop[0].Fitness != 1e12 {
		t.Fatal("migration mutated the source island")
	}
}

func withSeed(c Config, seed int64) Config {
	c.Seed = seed
	return c
}

func TestTopKOrdersByFitness(t *testing.T) {
	pop := []*Rule{
		{Fitness: 3}, {Fitness: 9}, {Fitness: 1}, {Fitness: 7},
	}
	got := topK(pop, 2)
	if got[0].Fitness != 9 || got[1].Fitness != 7 {
		t.Fatalf("topK fitnesses %v,%v", got[0].Fitness, got[1].Fitness)
	}
}

func TestReplaceWorstOnlyUpgrades(t *testing.T) {
	pop := []*Rule{{Fitness: 5}, {Fitness: 1}}
	// Worse migrant must not displace anyone.
	replaceWorst(pop, []*Rule{{Fitness: 0.5}})
	if pop[0].Fitness != 5 || pop[1].Fitness != 1 {
		t.Fatal("worse migrant entered the population")
	}
	replaceWorst(pop, []*Rule{{Fitness: 4}})
	if pop[1].Fitness != 4 {
		t.Fatalf("better migrant did not replace the worst: %v", pop[1].Fitness)
	}
}

func TestRunIslandsBeatsNothing(t *testing.T) {
	// Sanity: island evolution should produce at least as many valid
	// rules as one island alone (merged over 3 islands).
	ds := sineDataset(t, 400, 3)
	island, err := RunIslands(context.Background(), islandConfig(3, 31), ds)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewExecution(context.Background(), withSeed(islandConfig(3, 31).Base, 31), ds)
	if err != nil {
		t.Fatal(err)
	}
	single.Run(context.Background(), 0, nil)
	if island.RuleSet.Len() < len(single.ValidRules()) {
		t.Fatalf("3 islands produced %d rules, single run %d",
			island.RuleSet.Len(), len(single.ValidRules()))
	}
}
