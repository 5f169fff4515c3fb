package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/series"
)

// Speculative offspring prefetch must never change a result: a fit's
// rule set is the same whether it speculates or not (in process it
// does not; a context-aware backend — the loopback cluster, or a
// MatchIndex dressed as one — does), at one worker or two.

// specDataset builds a fresh small training set; every evaluation path
// gets its own, since a store takes over the dataset it is given.
func specDataset(t *testing.T) *series.Dataset {
	t.Helper()
	v := make([]float64, 360)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/37) + 0.4*math.Sin(2*math.Pi*float64(i)/11)
	}
	ds, err := series.Window(series.New("spec", v), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// specPath is one way to evaluate a fit.
type specPath struct {
	name    string
	workers int
	store   string // "" (the single index), "ctxindex" (core.CtxIndex, speculates), "engine" or "cluster" (speculates)
}

var specPaths = []specPath{
	{"index-w1", 1, ""}, {"index-w2", 2, ""},
	{"ctxindex-w1-spec", 1, "ctxindex"}, {"ctxindex-w2-spec", 2, "ctxindex"},
	{"engine-w1", 1, "engine"}, {"engine-w2", 2, "engine"},
	{"cluster-w1-spec", 1, "cluster"}, {"cluster-w2-spec", 2, "cluster"},
}

// loopbackCluster loads ds into a cluster of two in-process shard
// servers over the loopback transport.
func loopbackCluster(t *testing.T, ds *series.Dataset) (*remote.Cluster, []*remote.Loopback) {
	t.Helper()
	loops := []*remote.Loopback{
		remote.NewLoopback(remote.NewServer(engine.Options{Shards: 1})),
		remote.NewLoopback(remote.NewServer(engine.Options{Shards: 2})),
	}
	c, err := remote.NewCluster([]remote.Dialer{loops[0], loops[1]}, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Load(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	return c, loops
}

// wire points cfg at the path's backend and returns the training data
// to fit against.
func (p specPath) wire(t *testing.T, cfg *core.Config) *series.Dataset {
	ds := specDataset(t)
	cfg.Runtime.Workers = p.workers
	switch p.store {
	case "ctxindex":
		cfg.Runtime.Backend = core.NewCtxIndex(ds)
	case "engine":
		eng := engine.New(ds, engine.Options{Shards: 2})
		cfg.Runtime.Backend, cfg.Runtime.Cache = eng, eng.Cache()
		return eng.Data()
	case "cluster":
		c, _ := loopbackCluster(t, ds)
		cfg.Runtime.Backend, cfg.Runtime.Cache = c, c.Cache()
		return c.Data()
	}
	return ds
}

func digestRules(t *testing.T, rs *core.RuleSet) string {
	t.Helper()
	h := sha256.New()
	if err := rs.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func specConfig() core.Config {
	cfg := core.Default(3)
	cfg.PopSize = 40
	cfg.Generations = 1500
	cfg.Seed = 13
	return cfg
}

// TestSpeculationIdentityMatrix fits every configuration through every
// path and requires one rule-set digest per configuration.
func TestSpeculationIdentityMatrix(t *testing.T) {
	type variant struct {
		name string
		cfg  func(*core.Config)
		// cancelAt, when positive, cancels the fit from the progress
		// callback after that many generations. Eight consecutive
		// cancel points put at least one inside an open window on the
		// paths that speculate, unless every one of them replaced.
		cancelAt int
		islands  bool
	}
	variants := []variant{
		{name: "nearest", cfg: func(c *core.Config) { c.Replacement = core.ReplaceNearest }},
		{name: "worst", cfg: func(c *core.Config) { c.Replacement = core.ReplaceWorst }},
		{name: "random", cfg: func(c *core.Config) { c.Replacement = core.ReplaceRandom }},
		{name: "mutation-only", cfg: func(c *core.Config) { c.CrossoverRate = 0.4 }},
		{name: "mutation-only-random", cfg: func(c *core.Config) {
			c.CrossoverRate = 0.4
			c.Replacement = core.ReplaceRandom
		}},
		{name: "islands", cfg: func(*core.Config) {}, islands: true},
	}
	for g := 1001; g <= 1008; g++ {
		variants = append(variants, variant{name: fmt.Sprintf("cancelled-at-%d", g), cfg: func(*core.Config) {}, cancelAt: g})
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			want := ""
			for _, p := range specPaths {
				cfg := specConfig()
				v.cfg(&cfg)
				data := p.wire(t, &cfg)
				var rs *core.RuleSet
				switch {
				case v.islands:
					res, err := core.RunIslands(context.Background(), core.IslandConfig{
						Base: cfg, Islands: 3, MigrationInterval: 100, Migrants: 2, Parallelism: 2,
					}, data)
					if err != nil {
						t.Fatalf("%s: %v", p.name, err)
					}
					rs = res.RuleSet
				default:
					ctx, cancel := context.WithCancel(context.Background())
					mc := core.MultiRunConfig{Base: cfg, CoverageTarget: 2, MaxExecutions: 1}
					if v.cancelAt > 0 {
						mc.ProgressEvery = 1
						mc.OnProgress = func(_ int, pr core.Progress) bool {
							if pr.Generation == v.cancelAt {
								cancel()
							}
							return true
						}
					}
					res, err := core.MultiRun(ctx, mc, data)
					cancel()
					if v.cancelAt > 0 {
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("%s: cancelled fit returned %v", p.name, err)
						}
						if g := res.Executions[0].Generations; g != v.cancelAt {
							t.Fatalf("%s: cancelled after %d generations, want %d", p.name, g, v.cancelAt)
						}
					} else if err != nil {
						t.Fatalf("%s: %v", p.name, err)
					}
					rs = res.RuleSet
				}
				if rs.Len() == 0 {
					t.Fatalf("%s: empty rule set", p.name)
				}
				got := digestRules(t, rs)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s: digest %s, %s gave %s", p.name, got, specPaths[0].name, want)
				}
			}
		})
	}
}

// hookStore wraps a training store and runs hook just before the n-th
// MatchBatch it forwards. It forwards the optional context and health
// sides, so the evaluator sees the same capabilities as the store's.
type hookStore struct {
	core.Store
	calls atomic.Int32
	n     int32
	hook  func()
}

func (h *hookStore) MatchBatch(ctx context.Context, rules []*core.Rule) [][]int {
	if h.calls.Add(1) == h.n {
		h.hook()
	}
	return h.Store.MatchBatch(ctx, rules)
}

func (h *hookStore) MatchIndicesCtx(ctx context.Context, r *core.Rule) []int {
	return h.Store.(core.BackendCtx).MatchIndicesCtx(ctx, r)
}

func (h *hookStore) BackendErr() error { return h.Store.(core.BackendHealth).BackendErr() }

// faultedWindowRun runs one execution over a loopback cluster whose
// n-th MatchBatch — a speculative window's batch for any n ≥ 2, the
// first being the initial population's — is preceded by fault, after
// tweak (if not nil) has adjusted the configuration. It returns the
// population, the cache size when the fault fired and after the run,
// and the run's error.
func faultedWindowRun(t *testing.T, n int32, tweak func(*core.Config), fault func(cancel context.CancelFunc, loops []*remote.Loopback)) ([]*core.Rule, int, int, error) {
	t.Helper()
	c, loops := loopbackCluster(t, specDataset(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cacheAtFault := -1
	cache := core.NewResultCache()
	hs := &hookStore{Store: c, n: n}
	hs.hook = func() {
		cacheAtFault = core.CacheLen(cache)
		fault(cancel, loops)
	}
	cfg := specConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	cfg.Generations = 1 << 20
	cfg.Runtime.Workers = 1
	cfg.Runtime.Backend, cfg.Runtime.Cache = hs, cache
	ex, err := core.NewExecution(context.Background(), cfg, c.Data())
	if err != nil {
		t.Fatal(err)
	}
	err = ex.Run(ctx, 0, nil)
	if cacheAtFault < 0 {
		t.Fatal("the fault never fired: no speculative window batch reached the store")
	}
	if ex.Stats.Generations >= cfg.Generations {
		t.Fatal("the run ignored the fault")
	}
	return ex.Pop, cacheAtFault, core.CacheLen(cache), err
}

// TestSpeculationCancelledMidWindow cancels the fit inside a window's
// batch: the run stops with ctx's error, nothing from the cancelled
// window is cached, and every rule of the best-so-far population holds
// a complete evaluation — re-scoring it from scratch changes no field.
// The mutation-only variants matter most: there the generation the
// cancel interrupts holds a mutated clone still carrying its parent's
// evaluation, which must not enter the population. Every gene mutates,
// so the clone's matched set almost always differs from its parent's,
// and several cancel points make one such clone replace a rule.
func TestSpeculationCancelledMidWindow(t *testing.T) {
	variants := []struct {
		name  string
		tweak func(*core.Config)
	}{
		{"crossover", nil},
		{"mutation-only", func(c *core.Config) {
			c.CrossoverRate, c.MutationRate = 0, 1
		}},
		{"mutation-only-worst", func(c *core.Config) {
			c.CrossoverRate, c.MutationRate = 0, 1
			c.Replacement = core.ReplaceWorst
		}},
		{"mutation-only-random", func(c *core.Config) {
			c.CrossoverRate, c.MutationRate = 0.4, 1
			c.Replacement = core.ReplaceRandom
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for n := int32(2); n <= 10; n++ {
				pop, before, after, err := faultedWindowRun(t, n, v.tweak, func(cancel context.CancelFunc, _ []*remote.Loopback) { cancel() })
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("batch %d: Run returned %v, want context.Canceled", n, err)
				}
				if after != before {
					t.Fatalf("batch %d: cache grew from %d to %d entries after the window was cancelled", n, before, after)
				}
				ds := specDataset(t)
				cfg := specConfig()
				lo, hi := ds.TargetRange()
				ev := core.NewEvaluator(ds, 0.1*(hi-lo), cfg.FMin, cfg.Ridge, 1, core.EvalOptions{})
				for i, r := range pop {
					fresh := core.NewRule(append([]core.Interval(nil), r.Cond...))
					fresh.Prediction = r.Prediction
					ev.Evaluate(context.Background(), fresh)
					if fresh.Matches != r.Matches || fresh.Fitness != r.Fitness ||
						math.Float64bits(fresh.Error) != math.Float64bits(r.Error) ||
						math.Float64bits(fresh.Prediction) != math.Float64bits(r.Prediction) {
						t.Fatalf("batch %d: rule %d is torn: holds %+v, re-scores to %+v", n, i, r, fresh)
					}
				}
			}
		})
	}
}

// TestSpeculationServerKilledMidWindow kills a shard server just before
// a window's batch: the fit fails loudly with the transport error and
// nothing from the faulted window is cached.
func TestSpeculationServerKilledMidWindow(t *testing.T) {
	_, before, after, err := faultedWindowRun(t, 5, nil, func(_ context.CancelFunc, loops []*remote.Loopback) { loops[1].Stop() })
	if !errors.Is(err, remote.ErrTransport) {
		t.Fatalf("Run returned %v, want the wrapped transport failure", err)
	}
	if after != before {
		t.Fatalf("cache grew from %d to %d entries after the server died", before, after)
	}
}
