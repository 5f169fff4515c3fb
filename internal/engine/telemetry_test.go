package engine

import (
	"context"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/series"
)

// tickClock returns a deterministic Clock advancing 5ns per reading.
func tickClock() obs.Clock {
	var t int64
	return func() int64 {
		t += 5
		return t
	}
}

func TestEngineTelemetryMetrics(t *testing.T) {
	ds := testDataset(t, 300, 4, false)
	eng := New(ds, Options{})
	reg := obs.NewWithClock(tickClock())
	eng.Instrument(reg)
	ctx := context.Background()

	rules := randomRules(ds, 20, 3)
	eng.MatchBatch(ctx, rules)
	// An empty append changes nothing, so it is not a mutation.
	if err := eng.Append(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append([][]float64{ds.Inputs[0]}, []float64{ds.Targets[0]}); err != nil {
		t.Fatal(err)
	}
	eng.Window(100)
	eng.Delete([]series.RowID{eng.Data().IDs[0]})

	s := reg.Snapshot()
	batch, ok := s["engine_matchbatch_ns"].(obs.HistogramValue)
	if !ok || batch.Count != 1 {
		t.Fatalf("engine_matchbatch_ns = %#v, want one observation", s["engine_matchbatch_ns"])
	}
	if batch.Sum <= 0 {
		t.Fatalf("engine_matchbatch_ns sum = %d, want positive (fake clock ticks)", batch.Sum)
	}
	sizes, ok := s["engine_matchbatch_rules"].(obs.HistogramValue)
	if !ok || sizes.Sum != int64(len(rules)) {
		t.Fatalf("engine_matchbatch_rules = %#v, want sum %d", s["engine_matchbatch_rules"], len(rules))
	}
	if n, _ := s["engine_mutations"].(uint64); n != 3 || eng.Epoch() != 3 {
		t.Fatalf("engine_mutations = %v at epoch %d, want exactly append+window+delete", s["engine_mutations"], eng.Epoch())
	}
	if got := s["engine_epoch"].(float64); got != float64(eng.Epoch()) {
		t.Fatalf("engine_epoch gauge = %v, engine epoch %d", got, eng.Epoch())
	}
	if got := s["engine_live_rows"].(float64); got != float64(eng.LiveLen()) {
		t.Fatalf("engine_live_rows gauge = %v, live %d", got, eng.LiveLen())
	}
	for _, name := range []string{"engine_append_ns", "engine_window_ns", "engine_delete_ns"} {
		if hv, ok := s[name].(obs.HistogramValue); !ok || hv.Count != 1 {
			t.Fatalf("%s = %#v, want one observation", name, s[name])
		}
	}
}

// TestCacheTelemetryCounters: cache efficacy over an engine shows in
// the evaluator's core_evals_cached/core_evals_computed counters; the
// engine itself keeps no cache metrics.
func TestCacheTelemetryCounters(t *testing.T) {
	ds := testDataset(t, 200, 3, false)
	eng := New(ds, Options{})
	reg := obs.New()
	eng.Instrument(reg)
	ev := core.NewEvaluator(ds, 0.5, 0, 1e-8, 1, core.EvalOptions{Backend: eng, Telemetry: reg})
	rule := randomRules(ds, 1, 4)[0]
	ev.Evaluate(context.Background(), rule.Clone())
	ev.Evaluate(context.Background(), rule.Clone())

	s := reg.Snapshot()
	if n := s["core_evals_computed"].(uint64); n != 1 {
		t.Fatalf("core_evals_computed = %d, want 1", n)
	}
	if n := s["core_evals_cached"].(uint64); n != 1 {
		t.Fatalf("core_evals_cached = %d, want 1", n)
	}
	for name := range s {
		if strings.HasPrefix(name, "engine_cache") {
			t.Fatalf("engine registered cache metric %s", name)
		}
	}
}

// TestMatchBatchDisabledZeroAllocs pins the telemetry overhead
// contract: with no registry configured the exported wrapper adds zero
// allocations over the raw implementation, and even with a live
// registry the wrapper's Observe calls stay allocation-free.
func TestMatchBatchDisabledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random; pooled alloc counts are not exact")
	}
	ds := testDataset(t, 400, 4, false)
	rules := randomRules(ds, 16, 9)
	ctx := context.Background()

	// A GC between measurements would drain the match-scratch pools and
	// charge the refill to whichever run touches them next; park the
	// collector so the pooled steady state is deterministic.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Serial: deterministic allocation counts.
	s := New(ds, Options{})
	s.matchBatch(ctx, rules) // warm the scratch pools
	direct := testing.AllocsPerRun(50, func() { s.matchBatch(ctx, rules) })
	disabled := testing.AllocsPerRun(50, func() { s.MatchBatch(ctx, rules) })
	if disabled != direct {
		t.Fatalf("disabled telemetry wrapper allocates %v/op, raw path %v/op", disabled, direct)
	}

	s.Instrument(obs.New())
	enabled := testing.AllocsPerRun(50, func() { s.MatchBatch(ctx, rules) })
	if enabled != direct {
		t.Fatalf("enabled telemetry allocates %v/op, raw path %v/op", enabled, direct)
	}
}

// TestEngineTelemetryRace hammers one registry from concurrent match,
// append and snapshot goroutines; the race detector is the assertion.
func TestEngineTelemetryRace(t *testing.T) {
	ds := testDataset(t, 300, 4, false)
	eng := New(ds, Options{})
	reg := obs.New()
	eng.Instrument(reg)
	rules := randomRules(ds, 10, 5)
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			eng.MatchBatch(ctx, rules)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := eng.Append([][]float64{ds.Inputs[i]}, []float64{ds.Targets[i]}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s := reg.Snapshot()
			hv, ok := s["engine_matchbatch_ns"].(obs.HistogramValue)
			if !ok {
				continue
			}
			var n uint64
			for _, b := range hv.Buckets {
				n += b.N
			}
			if n != hv.Count {
				t.Errorf("histogram snapshot inconsistent: count %d, bucket sum %d", hv.Count, n)
				return
			}
		}
	}()
	wg.Wait()

	s := reg.Snapshot()
	if hv := s["engine_matchbatch_ns"].(obs.HistogramValue); hv.Count != 50 {
		t.Fatalf("engine_matchbatch_ns count = %d, want 50", hv.Count)
	}
	if n := s["engine_mutations"].(uint64); n != 50 {
		t.Fatalf("engine_mutations = %d, want 50", n)
	}
}

// TestEngineEvaluateAllMatchesOnWorkers: an evaluator over the engine
// matches each rule of an uncached EvaluateAll on the worker that
// regresses it, as over its own MatchIndex, so the batch never reaches
// Engine.MatchBatch; and its results equal that evaluator's.
func TestEngineEvaluateAllMatchesOnWorkers(t *testing.T) {
	const emax, fmin, ridge = 0.7, 0.0, 1e-8
	ds := testDataset(t, 400, 4, false)
	eng := New(ds, Options{})
	reg := obs.New()
	eng.Instrument(reg)
	rules := randomRules(ds, 64, 17)

	got := cloneAll(rules)
	ev := core.NewEvaluator(ds, emax, fmin, ridge, 2, core.EvalOptions{Backend: eng})
	if err := ev.EvaluateAll(context.Background(), got); err != nil {
		t.Fatal(err)
	}
	if hv, ok := reg.Snapshot()["engine_matchbatch_rules"].(obs.HistogramValue); !ok || hv.Count != 0 {
		t.Fatalf("engine_matchbatch_rules = %#v, want no observation", reg.Snapshot()["engine_matchbatch_rules"])
	}

	want := cloneAll(rules)
	own := core.NewEvaluator(ds, emax, fmin, ridge, 2, core.EvalOptions{})
	if _, ok := own.Backend().(*core.MatchIndex); !ok {
		t.Fatal("reference evaluator does not run on its own MatchIndex")
	}
	if err := own.EvaluateAll(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		requireIdentical(t, "engine vs own index", i, got[i], want[i])
	}
}
