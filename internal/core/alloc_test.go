package core_test

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/series"
)

// TestEvaluateAllocatesNoMatchedSet guards the pooled match path: a
// warmed Evaluate of a rule that is not cached matches into the
// evaluator's scratch, over its own MatchIndex and over a 2-shard
// engine alike, so it allocates only what escapes into the result and
// the cache (its key, fit and entry) — far less than the n×8 bytes of
// a matched set the size of the dataset.
func TestEvaluateAllocatesNoMatchedSet(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; pooled allocations are not steady")
	}
	// A GC would drain the scratch pools and charge the refill to the
	// next evaluation; park the collector so the steady state shows.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 200
	for _, c := range []struct {
		name    string
		backend func(*series.Dataset) core.Backend
	}{
		{"index", func(*series.Dataset) core.Backend { return nil }},
		{"engine2", func(ds *series.Dataset) core.Backend { return engine.New(ds, engine.Options{Shards: 2}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			v := make([]float64, 4000)
			for i := range v {
				v[i] = math.Sin(2*math.Pi*float64(i)/53) + 0.3*math.Sin(2*math.Pi*float64(i)/17)
			}
			ds, err := series.Window(series.New("alloc", v), 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := ds.Len()
			ev := core.NewEvaluator(ds, 1, 0, 1e-8, 1, core.EvalOptions{Backend: c.backend(ds)})
			// Distinct signatures with one matched set: lag 0 at most 0.8,
			// from a lower bound below every value that differs per rule.
			rules := make([]*core.Rule, calls+1)
			for i := range rules {
				cond := make([]core.Interval, ds.D)
				for j := range cond {
					cond[j] = core.Interval{Wildcard: true}
				}
				cond[0] = core.NewInterval(-2-float64(i)*1e-3, 0.8)
				rules[i] = core.NewRule(cond)
			}
			ctx := context.Background()
			ev.Evaluate(ctx, rules[calls]) // warm the pools
			if m := rules[calls].Matches; m < n/2 {
				t.Fatalf("rules match %d of %d rows; the guard needs most of them", m, n)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, r := range rules[:calls] {
				ev.Evaluate(ctx, r)
			}
			runtime.ReadMemStats(&after)
			perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
			if limit := float64(n); perCall > limit {
				t.Fatalf("Evaluate allocates %.0f B per call, want at most %.0f (a matched set is up to %d B)", perCall, limit, 8*n)
			}
			t.Logf("%.0f B per call over %d rows", perCall, n)
		})
	}
}
