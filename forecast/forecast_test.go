package forecast

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/series"
)

// sineDataset windows a noisy-free sine so runs are fast and
// deterministic.
func sineDataset(t *testing.T, n, d int) *Dataset {
	t.Helper()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i) / 7)
	}
	ds, err := series.Window(series.New("sine", vals), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func ruleSetBytes(t *testing.T, rs *RuleSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative generations", []Option{WithGenerations(-1)}},
		{"population of one", []Option{WithPopulation(1)}},
		{"bad coverage", []Option{WithCoverageTarget(1.5)}},
		{"islands and multirun", []Option{WithIslands(2, 10, 1), WithMultiRun(3)}},
		{"one island", []Option{WithIslands(1, 10, 1)}},
		{"migrants vs population", []Option{WithIslands(2, 10, 5), WithPopulation(4)}},
		{"zero sliding window", []Option{WithSlidingWindow(0)}},
		{"nil progress", []Option{WithProgress(10, nil)}},
		{"negative WithEngine argument", []Option{WithEngine(-1)}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts...); !errors.Is(err, ErrOption) {
			t.Errorf("%s: want ErrOption, got %v", tc.name, err)
		}
	}
	if _, err := New(WithMultiRun(3), WithCoverageTarget(0.9), WithEngine(0)); err != nil {
		t.Fatalf("valid option set rejected: %v", err)
	}
	if _, err := New(WithSharedCache()); err != nil {
		t.Fatalf("the no-op WithSharedCache was rejected: %v", err)
	}
}

// TestFacadeMatchesCoreMultiRun proves the facade is a pure re-wiring:
// for a fixed seed, Fit produces the byte-identical rule system the
// pre-redesign core.MultiRun path produces from the same
// hyperparameters.
func TestFacadeMatchesCoreMultiRun(t *testing.T) {
	ds := sineDataset(t, 320, 4)

	f, err := New(
		WithMultiRun(3),
		WithCoverageTarget(0.95),
		WithPopulation(24),
		WithGenerations(200),
		WithSeed(11),
		WithParallelism(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}

	base := core.Default(ds.D)
	base.Horizon = ds.Horizon
	base.PopSize = 24
	base.Generations = 200
	base.Seed = 11
	res, err := core.MultiRun(context.Background(), core.MultiRunConfig{
		Base:           base,
		CoverageTarget: 0.95,
		MaxExecutions:  3,
		Parallelism:    2,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}

	got, want := ruleSetBytes(t, f.RuleSet()), ruleSetBytes(t, res.RuleSet)
	if !bytes.Equal(got, want) {
		t.Fatal("facade multi-run result differs from direct core.MultiRun")
	}
	if f.Stats().Executions != len(res.Executions) || f.Stats().Coverage != res.Coverage {
		t.Fatalf("stats mismatch: %+v vs %d executions, coverage %v",
			f.Stats(), len(res.Executions), res.Coverage)
	}
}

// TestFacadeEngineBitIdentical: the engine behind the facade (with
// or without the no-op shared cache) must not change results vs the
// facade's own sequential path — the engine-level property test,
// re-proved through the public API.
func TestFacadeEngineBitIdentical(t *testing.T) {
	ds := sineDataset(t, 300, 3)
	run := func(opts ...Option) []byte {
		opts = append([]Option{
			WithMultiRun(2),
			WithPopulation(20),
			WithGenerations(150),
			WithSeed(5),
		}, opts...)
		f, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Fit(context.Background(), ds); err != nil {
			t.Fatal(err)
		}
		return ruleSetBytes(t, f.RuleSet())
	}
	sequential := run()
	if engined := run(WithEngine(0)); !bytes.Equal(sequential, engined) {
		t.Fatal("WithEngine changed results")
	}
	if shared := run(WithEngine(0), WithSharedCache()); !bytes.Equal(sequential, shared) {
		t.Fatal("WithEngine+WithSharedCache changed results")
	}
}

// TestFacadeMatchesCoreIslands: same equivalence for the island
// topology.
func TestFacadeMatchesCoreIslands(t *testing.T) {
	ds := sineDataset(t, 300, 3)

	f, err := New(
		WithIslands(3, 40, 2),
		WithPopulation(20),
		WithGenerations(120),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}

	base := core.Default(ds.D)
	base.Horizon = ds.Horizon
	base.PopSize = 20
	base.Generations = 120
	base.Seed = 7
	res, err := core.RunIslands(context.Background(), core.IslandConfig{
		Base:              base,
		Islands:           3,
		MigrationInterval: 40,
		Migrants:          2,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ruleSetBytes(t, f.RuleSet()), ruleSetBytes(t, res.RuleSet)) {
		t.Fatal("facade island result differs from direct core.RunIslands")
	}
	if f.Stats().Migrations != res.Migrations {
		t.Fatalf("migrations %d, want %d", f.Stats().Migrations, res.Migrations)
	}
}

// TestFacadeStreaming drives the Fit → Append → Evict lifecycle and
// checks the sliding window is enforced and predictions stay usable.
func TestFacadeStreaming(t *testing.T) {
	const d, window = 3, 150
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = math.Sin(float64(i) / 5)
	}
	ds, err := series.Window(series.New("stream", vals[:260]), d, 1)
	if err != nil {
		t.Fatal(err)
	}

	f, err := New(
		WithEngine(0),
		WithSlidingWindow(window),
		WithPopulation(16),
		WithGenerations(120),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if live := f.Data().Len(); live != window {
		t.Fatalf("after Fit: window %d, want %d", live, window)
	}
	st, ok := f.StoreStats()
	if !ok || st.Live != window {
		t.Fatalf("store stats %+v ok=%v", st, ok)
	}

	inputs, targets := series.TailPatterns(vals[:320], 260, d, 1)
	if err := f.Append(context.Background(), inputs, targets); err != nil {
		t.Fatal(err)
	}
	if live := f.Data().Len(); live != window {
		t.Fatalf("after Append: window %d, want %d", live, window)
	}
	if v, ok := f.Predict(vals[317:320]); !ok || math.IsNaN(v) {
		t.Fatalf("Predict after Append: v=%v ok=%v", v, ok)
	}

	evicted := f.Evict(50)
	if evicted != 50 {
		t.Fatalf("Evict(50) evicted %d", evicted)
	}
	if live := f.Data().Len(); live != window-50 {
		t.Fatalf("after Evict: live %d, want %d", live, window-50)
	}
	if err := f.Refit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !f.Fitted() {
		t.Fatal("not fitted after Refit")
	}
}

// TestStreamingRequiresEngine: Append on an engineless Forecaster must
// fail loudly, not silently retrain.
func TestStreamingRequiresEngine(t *testing.T) {
	ds := sineDataset(t, 120, 3)
	f, err := New(WithPopulation(10), WithGenerations(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(context.Background(), nil, nil); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Append before Fit: want ErrNotFitted, got %v", err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(context.Background(), nil, nil); !errors.Is(err, ErrNoEngine) {
		t.Fatalf("Append without engine: want ErrNoEngine, got %v", err)
	}
	if n := f.Evict(10); n != 0 {
		t.Fatalf("Evict without engine evicted %d", n)
	}
}

// TestProgressCallback: WithProgress observes every execution and can
// stop one early.
func TestProgressCallback(t *testing.T) {
	ds := sineDataset(t, 200, 3)
	var calls int
	seen := map[int]bool{}
	f, err := New(
		WithMultiRun(2),
		WithPopulation(12),
		WithGenerations(100),
		WithSeed(2),
		WithProgress(20, func(p Progress) bool {
			calls++
			seen[p.Execution] = true
			return true
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if calls == 0 || !seen[0] || !seen[1] {
		t.Fatalf("progress calls=%d seen=%v", calls, seen)
	}

	// Early stop: refuse everything after the first snapshot.
	stopper, err := New(
		WithPopulation(12),
		WithGenerations(100000),
		WithSeed(2),
		WithProgress(10, func(p Progress) bool { return false }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := stopper.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if g := stopper.Stats().Generations; g > 20 {
		t.Fatalf("early-stopped run still spent %d generations", g)
	}
}

// TestHorizonMismatch: a declared horizon that contradicts the
// dataset is a configuration error, not a silent override.
func TestHorizonMismatch(t *testing.T) {
	ds := sineDataset(t, 120, 3) // horizon 1
	f, err := New(WithHorizon(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); !errors.Is(err, ErrOption) {
		t.Fatalf("want ErrOption on horizon mismatch, got %v", err)
	}
	if f.Fitted() {
		t.Fatal("mismatched Fit installed a rule system")
	}
}

// TestDataHelpers: the load/window/split helpers produce coherent
// datasets.
func TestDataHelpers(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := series.New("lin", vals)
	train, test, err := Split(s, 4, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != 96 { // 100 - 4 - 1 + 1 patterns
		t.Fatalf("split sizes %d + %d", train.Len(), test.Len())
	}
	if test.Len() != 96/4 {
		t.Fatalf("test fraction: %d of 96", test.Len())
	}
	emb, err := Embed(s, 4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if emb.D != 4 || emb.Len() == 0 {
		t.Fatalf("embed: D=%d len=%d", emb.D, emb.Len())
	}
}
