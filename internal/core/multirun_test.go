package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"math"
	"testing"

	"repro/internal/series"
)

func multiRunConfig(d int) MultiRunConfig {
	base := Default(d)
	base.PopSize = 20
	base.Generations = 200
	base.Seed = 9
	return MultiRunConfig{
		Base:           base,
		CoverageTarget: 0.9,
		MaxExecutions:  4,
		Parallelism:    2,
	}
}

func multiRunDataset(t *testing.T, n, d int) *series.Dataset {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/30) + 0.2*math.Cos(2*math.Pi*float64(i)/7)
	}
	ds, err := series.Window(series.New("mr", v), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestMultiRunValidation(t *testing.T) {
	cfg := multiRunConfig(3)
	cfg.CoverageTarget = -0.5
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("negative CoverageTarget accepted")
	}
	cfg = multiRunConfig(3)
	cfg.MaxExecutions = 0
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("MaxExecutions=0 accepted")
	}
	cfg = multiRunConfig(3)
	cfg.Parallelism = -1
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("negative Parallelism accepted")
	}
	cfg = multiRunConfig(3)
	cfg.Base.PopSize = 0
	if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("bad base config accepted")
	}
}

func TestMultiRunAccumulates(t *testing.T) {
	ds := multiRunDataset(t, 400, 3)
	res, err := MultiRun(context.Background(), multiRunConfig(3), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleSet.Len() == 0 {
		t.Fatal("no rules accumulated")
	}
	if len(res.Executions) == 0 {
		t.Fatal("no execution stats")
	}
	if res.Coverage <= 0 {
		t.Fatalf("coverage = %v", res.Coverage)
	}
	// Coverage reported must match a recomputation.
	if got := res.RuleSet.Coverage(ds); math.Abs(got-res.Coverage) > 1e-12 {
		t.Fatalf("reported coverage %v != recomputed %v", res.Coverage, got)
	}
}

func TestMultiRunStopsAtTarget(t *testing.T) {
	ds := multiRunDataset(t, 400, 3)
	cfg := multiRunConfig(3)
	// Stratified init virtually guarantees high coverage after one
	// wave, so with a tiny target only one wave should run.
	cfg.CoverageTarget = 0.01
	cfg.Parallelism = 1
	cfg.MaxExecutions = 8
	res, err := MultiRun(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executions) != 1 {
		t.Fatalf("ran %d executions despite trivial target", len(res.Executions))
	}
}

func TestMultiRunDeterministicAcrossParallelism(t *testing.T) {
	ds := multiRunDataset(t, 300, 3)
	run := func(par int) *MultiRunResult {
		cfg := multiRunConfig(3)
		cfg.CoverageTarget = 2 // unreachable: always MaxExecutions runs
		cfg.Parallelism = par
		cfg.MaxExecutions = 3
		res, err := MultiRun(context.Background(), cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(3)
	if a.RuleSet.Len() != b.RuleSet.Len() {
		t.Fatalf("parallelism changed rule count: %d vs %d", a.RuleSet.Len(), b.RuleSet.Len())
	}
	if a.Coverage != b.Coverage {
		t.Fatalf("parallelism changed coverage: %v vs %v", a.Coverage, b.Coverage)
	}
	for i := range a.RuleSet.Rules {
		ra, rb := a.RuleSet.Rules[i], b.RuleSet.Rules[i]
		if ra.Fitness != rb.Fitness || ra.Prediction != rb.Prediction || ra.Matches != rb.Matches {
			t.Fatalf("rule %d differs across parallelism", i)
		}
	}
}

// A coverage target the first execution reaches stops the accumulation
// there at any wave size: with Parallelism 2 the wave's second
// execution runs but is discarded, so the rule set is byte-identical
// to the one Parallelism 1 builds.
func TestMultiRunCoverageTargetIndependentOfWave(t *testing.T) {
	ds := multiRunDataset(t, 300, 3)
	run := func(par, maxExec int, target float64) (*MultiRunResult, [sha256.Size]byte) {
		cfg := multiRunConfig(3)
		cfg.CoverageTarget = target
		cfg.Parallelism = par
		cfg.MaxExecutions = maxExec
		res, err := MultiRun(context.Background(), cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.RuleSet.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, sha256.Sum256(buf.Bytes())
	}
	first, want := run(1, 1, 2)
	_, both := run(2, 2, 2)
	if both == want {
		t.Fatal("the second execution adds nothing; the test cannot tell wave sizes apart")
	}
	for _, par := range []int{1, 2} {
		res, got := run(par, 4, first.Coverage)
		if len(res.Executions) != 1 || got != want {
			t.Errorf("Parallelism %d: %d executions accumulated, digest %x; want 1 execution, digest %x",
				par, len(res.Executions), got, want)
		}
	}
}

func TestMultiRunCoverageMonotoneInExecutions(t *testing.T) {
	ds := multiRunDataset(t, 300, 3)
	cov := func(maxExec int) float64 {
		cfg := multiRunConfig(3)
		cfg.CoverageTarget = 2
		cfg.Parallelism = 1
		cfg.MaxExecutions = maxExec
		res, err := MultiRun(context.Background(), cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return res.Coverage
	}
	// More executions can only add rules → coverage is monotone.
	if cov(3) < cov(1)-1e-12 {
		t.Fatal("coverage decreased with more executions")
	}
}
