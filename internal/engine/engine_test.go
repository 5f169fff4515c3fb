package engine

import (
	"context"

	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/series"
)

// testDataset windows a smooth two-tone signal, optionally poisoning
// one pattern with NaN to exercise the degenerate-index paths.
func testDataset(t testing.TB, n, d int, nan bool) *series.Dataset {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.3*math.Sin(2*math.Pi*float64(i)/13)
	}
	ds, err := series.Window(series.New("engine-test", v), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nan && ds.Len() > 7 {
		row := append([]float64(nil), ds.Inputs[7]...)
		row[0] = math.NaN()
		ds.Inputs[7] = row
	}
	return ds
}

// randomRules draws a diverse rule population: stratified
// initialization plus purely random interval rules (wildcards, narrow
// and wide genes, inverted and NaN bounds among them).
func randomRules(ds *series.Dataset, n int, seed int64) []*core.Rule {
	src := rng.New(seed)
	out := core.InitStratified(ds, n/2+1)
	lo, hi := ds.TargetRange()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	for len(out) < n {
		cond := make([]core.Interval, ds.D)
		for j := range cond {
			switch src.Intn(10) {
			case 0, 1, 2:
				cond[j] = core.Wild()
			case 3:
				// Inverted bounds, as ReadJSON can produce.
				cond[j] = core.Interval{Lo: hi, Hi: lo}
			case 4:
				cond[j] = core.Interval{Lo: math.NaN(), Hi: hi}
			case 5:
				cond[j] = core.Interval{Lo: lo, Hi: math.NaN()}
			case 6:
				// Both bounds NaN: fully unconstraining, but unlike
				// Wild() it reaches the verification loop.
				cond[j] = core.Interval{Lo: math.NaN(), Hi: math.NaN()}
			default:
				a := src.Uniform(lo-0.2*span, hi+0.2*span)
				b := a + src.Uniform(0, 0.8*span)
				cond[j] = core.NewInterval(a, b)
			}
		}
		out = append(out, core.NewRule(cond))
	}
	return out[:n]
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEngineIgnoresShardCount: the deprecated Shards option, whatever
// its value, builds the same one-partition store over every row.
func TestEngineIgnoresShardCount(t *testing.T) {
	ds := testDataset(t, 200, 4, false)
	rules := randomRules(ds, 20, 3)
	ref := New(ds, Options{})
	for _, p := range []int{-5, 0, 1, 7, 1000} {
		s := New(ds, Options{Shards: p})
		if lo, hi := s.LiveSpread(); s.P() != 1 || lo != ds.Len() || hi != ds.Len() || s.LiveLen() != ds.Len() {
			t.Fatalf("Shards=%d: P=%d spread=(%d,%d) live=%d, want one partition of %d rows",
				p, s.P(), lo, hi, s.LiveLen(), ds.Len())
		}
		for ri, r := range rules {
			if got, want := s.MatchIndices(r), ref.MatchIndices(r); !intsEqual(got, want) {
				t.Fatalf("Shards=%d rule %d: matched %v, want %v", p, ri, got, want)
			}
		}
	}
}

func TestMatchIndicesEqualsSequential(t *testing.T) {
	for _, nan := range []bool{false, true} {
		ds := testDataset(t, 300, 4, nan)
		ref := core.NewEvaluator(ds, 0.2, 0, 1e-8, 1, core.EvalOptions{})
		s := New(ds, Options{})
		for ri, r := range randomRules(ds, 60, 11) {
			want := ref.MatchIndicesScan(r)
			if got := s.MatchIndices(r); !intsEqual(got, want) {
				t.Fatalf("nan=%v rule %d: engine matched %v, scan %v", nan, ri, got, want)
			}
		}
	}
}

func TestMatchBatchEqualsMatchIndices(t *testing.T) {
	for _, nan := range []bool{false, true} {
		ds := testDataset(t, 300, 4, nan)
		rules := randomRules(ds, 50, 23)
		s := New(ds, Options{})
		batch := s.MatchBatch(context.Background(), rules)
		if len(batch) != len(rules) {
			t.Fatalf("MatchBatch returned %d results for %d rules", len(batch), len(rules))
		}
		for ri, r := range rules {
			if want := s.MatchIndices(r); !intsEqual(batch[ri], want) {
				t.Fatalf("nan=%v rule %d: batch %v, single %v", nan, ri, batch[ri], want)
			}
		}
	}
}

// TestEngineBackendKeepsOwnCache: an execution whose Runtime.Backend
// is the engine matches through it but keeps its own result cache,
// never the one the engine holds for perfbench.
func TestEngineBackendKeepsOwnCache(t *testing.T) {
	ds := testDataset(t, 200, 3, false)
	eng := New(ds, Options{})
	cfg := core.Default(3)
	cfg.Runtime.Backend = eng
	cfg.Generations = 30
	cfg.PopSize = 10
	ex, err := core.NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Eval.Backend() != core.Backend(eng) {
		t.Fatal("execution did not adopt the engine backend")
	}
	ex.Run(context.Background(), 0, nil)
	if hits, misses := ex.Eval.CacheStats(); hits+misses == 0 {
		t.Fatal("execution never touched its own cache")
	}
	if hits, misses := eng.Cache().Stats(); hits+misses != 0 {
		t.Fatal("execution touched the engine's held cache")
	}
}

// An engine built over a different dataset must be ignored, mirroring
// the foreign-index rule — and rejecting the backend must also reject
// its cache: cache keys carry no dataset identity, so adopting the
// cache alone would let dsB results answer dsA rules.
func TestEvaluatorRejectsForeignEngine(t *testing.T) {
	dsA := testDataset(t, 200, 3, false)
	dsB := testDataset(t, 260, 3, false)
	eng := New(dsB, Options{})
	cache := core.NewResultCache()
	ev := core.NewEvaluator(dsA, 1.0, 0, 1e-8, 1,
		core.EvalOptions{Backend: eng, Cache: cache})
	if _, ok := ev.Backend().(*core.MatchIndex); !ok || ev.Backend().Data() != dsA {
		t.Fatal("evaluator did not fall back to its own index over its dataset")
	}
	ev.EvaluateAll(context.Background(), randomRules(dsA, 10, 5))
	if hits, misses := cache.Stats(); hits+misses != 0 {
		t.Fatal("evaluator used the foreign engine's cache despite rejecting its backend")
	}
}

// A shared cache without its backend must be ignored too: without the
// backend's epoch in the keys, pre-append results would survive an
// Append (the dataset pointer is unchanged, only the epoch moves).
func TestEvaluatorRejectsCacheWithoutBackend(t *testing.T) {
	ds := testDataset(t, 200, 3, false)
	cache := core.NewResultCache()
	ev := core.NewEvaluator(ds, 1.0, 0, 1e-8, 1, core.EvalOptions{Cache: cache})
	ev.EvaluateAll(context.Background(), randomRules(ds, 10, 5))
	if hits, misses := cache.Stats(); hits+misses != 0 {
		t.Fatal("evaluator adopted a shared cache without its backend")
	}
}

func TestAppendValidation(t *testing.T) {
	ds := testDataset(t, 100, 3, false)
	n0 := ds.Len()
	eng := New(ds, Options{})
	if err := eng.Append([][]float64{{1, 2}}, []float64{0}); err == nil {
		t.Fatal("Append accepted a pattern of the wrong width")
	}
	if err := eng.Append([][]float64{{1, 2, 3}}, []float64{0, 1}); err == nil {
		t.Fatal("Append accepted mismatched inputs/targets lengths")
	}
	if epoch := eng.Epoch(); epoch != 0 {
		t.Fatalf("failed appends bumped the epoch to %d", epoch)
	}
	if err := eng.Append(nil, nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	if epoch := eng.Epoch(); epoch != 0 {
		t.Fatalf("empty append bumped the epoch to %d", epoch)
	}
	if err := eng.Append([][]float64{{1, 2, 3}}, []float64{4}); err != nil {
		t.Fatalf("valid append: %v", err)
	}
	if epoch := eng.Epoch(); epoch != 1 {
		t.Fatalf("epoch after one append = %d, want 1", epoch)
	}
	if eng.LiveLen() != n0+1 {
		t.Fatalf("LiveLen after append = %d, want %d", eng.LiveLen(), n0+1)
	}
}
