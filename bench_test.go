// Package repro's benchmark suite regenerates every table and figure
// of the paper (one benchmark per experiment) and adds micro- and
// ablation benches for the core algorithm. Error/coverage numbers are
// attached to the benchmark output via ReportMetric so a -bench run
// doubles as a reproduction report:
//
//	go test -bench=. -benchmem
//
// Table/figure benches run at the Tiny experiment scale so the whole
// suite stays in laptop territory; cmd/experiments regenerates them at
// quick or full (paper) scale.
package repro

import (
	"context"

	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/neural"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/series"
)

// --- Paper tables -----------------------------------------------------

// BenchmarkTable1Venice regenerates Table 1 (Venice Lagoon, all eight
// horizons, rule system vs MLP, RMSE in cm).
func BenchmarkTable1Venice(b *testing.B) {
	sc := experiments.Tiny()
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(context.Background(), sc, 42, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		row := last.Rows[0] // horizon 1
		b.ReportMetric(row.ErrorRS, "h1_rmse_rs_cm")
		b.ReportMetric(row.ErrorNN, "h1_rmse_nn_cm")
		b.ReportMetric(row.CoveragePct, "h1_coverage_%")
	}
}

// BenchmarkTable2MackeyGlass regenerates Table 2 (Mackey-Glass,
// horizons 50 and 85, rule system vs MRAN/RAN, NMSE).
func BenchmarkTable2MackeyGlass(b *testing.B) {
	sc := experiments.Tiny()
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(context.Background(), sc, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Rows[0].ErrorRS, "h50_nmse_rs")
		b.ReportMetric(last.Rows[0].ErrorMRAN, "h50_nmse_mran")
		b.ReportMetric(last.Rows[1].ErrorRS, "h85_nmse_rs")
		b.ReportMetric(last.Rows[1].ErrorRAN, "h85_nmse_ran")
	}
}

// BenchmarkTable3Sunspots regenerates Table 3 (sunspots, five
// horizons, rule system vs feed-forward vs recurrent nets, Galván
// error).
func BenchmarkTable3Sunspots(b *testing.B) {
	sc := experiments.Tiny()
	var last *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(context.Background(), sc, 42, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		row := last.Rows[0]
		b.ReportMetric(row.ErrorRS, "h1_galvan_rs")
		b.ReportMetric(row.ErrorFF, "h1_galvan_ff")
		b.ReportMetric(row.ErrorRec, "h1_galvan_rec")
	}
}

// --- Paper figures ----------------------------------------------------

// BenchmarkFigure1RuleDiagram regenerates Figure 1 (evolving a
// population and rendering its fittest rule).
func BenchmarkFigure1RuleDiagram(b *testing.B) {
	sc := experiments.Tiny()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(context.Background(), sc, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2UnusualTide regenerates Figure 2 (real vs predicted
// water level around the highest validation tide, horizon 1).
func BenchmarkFigure2UnusualTide(b *testing.B) {
	sc := experiments.Tiny()
	var last *experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(context.Background(), sc, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.PeakValue, "peak_cm")
	}
}

// --- Ablations and the generalization check ---------------------------

// BenchmarkAblations runs the full design-choice ablation study
// (replacement strategy, distance kind, wildcards, mutation rate,
// weighted prediction) on the Mackey-Glass workload.
func BenchmarkAblations(b *testing.B) {
	sc := experiments.Tiny()
	var last *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablations(context.Background(), sc, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		for _, row := range last.Rows {
			if row.Variant == "paper (crowding, stratified, prediction distance)" {
				b.ReportMetric(row.NMSE, "paper_nmse")
			}
			if row.Variant == "replacement: worst" {
				b.ReportMetric(row.NMSE, "worst_repl_nmse")
			}
		}
	}
}

// BenchmarkGeneralizationLorenz measures the out-of-paper-domain
// check (rule system vs RAN vs AR on the Lorenz attractor).
func BenchmarkGeneralizationLorenz(b *testing.B) {
	sc := experiments.Tiny()
	var last *experiments.GeneralizationResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Generalization(context.Background(), sc, 42)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		for _, row := range last.Rows {
			if row.Learner == "rule system" {
				b.ReportMetric(row.NMSE, "rules_nmse")
			}
		}
	}
}

// --- Parallel scaling ---------------------------------------------------

// benchMultiRun measures MultiRun wall time at a given parallelism.
func benchMultiRun(b *testing.B, parallelism int) {
	trainSeries, _, err := series.MackeyGlassPaper()
	if err != nil {
		b.Fatal(err)
	}
	train, err := series.WindowEmbed(trainSeries, 4, 6, 50)
	if err != nil {
		b.Fatal(err)
	}
	base := core.Default(train.D)
	base.Horizon = train.Horizon
	base.PopSize = 24
	base.Generations = 400
	base.Seed = 7
	cfg := core.MultiRunConfig{
		Base:           base,
		CoverageTarget: 2, // run all executions
		MaxExecutions:  4,
		Parallelism:    parallelism,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MultiRun(context.Background(), cfg, train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiRunParallel1(b *testing.B) { benchMultiRun(b, 1) }
func BenchmarkMultiRunParallel2(b *testing.B) { benchMultiRun(b, 2) }
func BenchmarkMultiRunParallel4(b *testing.B) { benchMultiRun(b, 4) }

// --- Core micro-benchmarks ----------------------------------------------

func benchTrainDataset(b *testing.B, n, d int) *series.Dataset {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.3*math.Sin(2*math.Pi*float64(i)/13)
	}
	ds, err := series.Window(series.New("bench", v), d, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkRuleMatch measures the hot path: one rule matched against
// one 24-wide pattern.
func BenchmarkRuleMatch(b *testing.B) {
	ds := benchTrainDataset(b, 100, 24)
	pop := core.InitStratified(ds, 10)
	r := pop[5]
	pattern := ds.Inputs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Match(pattern)
	}
}

// BenchmarkMatchIndicesIndexed measures C_R(S) computation through
// the indexed match engine on a 10k-pattern training set; compare
// against BenchmarkMatchIndicesNaive for the engine's speedup.
func BenchmarkMatchIndicesIndexed(b *testing.B) {
	ds := benchTrainDataset(b, 10000, 24)
	ev := core.NewEvaluator(ds, 0.2, 0, 1e-8, 1, core.EvalOptions{})
	pop := core.InitStratified(ds, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Backend().MatchIndices(pop[i%len(pop)])
	}
}

// BenchmarkMatchIndicesNaive is the reference linear scan over the
// same rules and dataset.
func BenchmarkMatchIndicesNaive(b *testing.B) {
	ds := benchTrainDataset(b, 10000, 24)
	ev := core.NewEvaluator(ds, 0.2, 0, 1e-8, 1, core.EvalOptions{})
	pop := core.InitStratified(ds, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.MatchIndicesScan(pop[i%len(pop)])
	}
}

// BenchmarkEvaluateRuleCached measures the fitness path when the
// evaluation cache is warm — the offspring-unchanged-after-mutation
// case the cache exists for.
func BenchmarkEvaluateRuleCached(b *testing.B) {
	ds := benchTrainDataset(b, 10000, 24)
	ev := core.NewEvaluator(ds, 0.2, 0, 1e-8, 1, core.EvalOptions{})
	pop := core.InitStratified(ds, 10)
	for _, r := range pop {
		ev.Evaluate(context.Background(), r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(context.Background(), pop[i%len(pop)])
	}
}

// uncachedRules clones n rules off the population, giving each a
// unique interval signature (a sub-femto jitter on one bound) so
// every Evaluate call misses the evaluation cache and performs the
// full match + regression + fitness work.
func uncachedRules(pop []*core.Rule, n int) []*core.Rule {
	rules := make([]*core.Rule, n)
	for i := range rules {
		r := pop[i%len(pop)].Clone()
		jitter := 1e-12 * float64(i/len(pop)+1)
		for j := range r.Cond {
			if !r.Cond[j].Wildcard {
				r.Cond[j] = core.NewInterval(r.Cond[j].Lo+jitter, r.Cond[j].Hi)
				break
			}
		}
		rules[i] = r
	}
	return rules
}

// BenchmarkEvaluateRule measures one full rule evaluation (match scan
// + regression + fitness) on a 10k-pattern training set. Rules carry
// unique signatures so the evaluation cache never short-circuits the
// work being measured.
func BenchmarkEvaluateRule(b *testing.B) {
	ds := benchTrainDataset(b, 10000, 24)
	ev := core.NewEvaluator(ds, 0.2, 0, 1e-8, 1, core.EvalOptions{})
	rules := uncachedRules(core.InitStratified(ds, 10), b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(context.Background(), rules[i])
	}
}

// --- Evaluation engine (internal/engine) ---------------------------------

const engineBenchBatch = 128

// benchEngineSetup is the shared fixture of the BenchmarkEngineBatch
// family: the 10k-pattern dataset, an engine (instrumented with reg
// when non-nil), an evaluator wired to both, and b.N
// generations of signature-unique rules. It runs one extra warm-up
// generation before returning so the pooled match/regression scratch
// is populated ahead of the timer — at CI's -benchtime=1x a cold pool
// would otherwise be charged to the single measured op.
func benchEngineSetup(b *testing.B, reg *obs.Registry) (*core.Evaluator, []*core.Rule) {
	b.Helper()
	ds := benchTrainDataset(b, 10000, 24)
	eng := engine.New(ds, engine.Options{})
	opt := core.EvalOptions{Backend: eng}
	if reg != nil {
		eng.Instrument(reg)
		opt.Telemetry = reg
	}
	ev := core.NewEvaluator(ds, 0.2, 0, 1e-8, 0, opt)
	rules := uncachedRules(core.InitStratified(ds, 16), (b.N+1)*engineBenchBatch)
	ev.EvaluateAll(context.Background(), rules[b.N*engineBenchBatch:])
	return ev, rules[:b.N*engineBenchBatch]
}

// BenchmarkEngineBatch measures batched offspring evaluation: one
// EvaluateAll scheduling pass serves a whole generation of 128 rules
// through the engine. On multicore hosts the pass fans the matches and
// the consequent regressions out across rules, each worker matching
// the rule it regresses, which per-rule dispatch cannot (it
// parallelizes only within one rule's match); on a single core the two
// converge. Compare against
// BenchmarkEnginePerRule for the batching speedup and against
// BenchmarkEvaluateRule (×128) for the sequential single-index path.
func BenchmarkEngineBatch(b *testing.B) {
	ev, rules := benchEngineSetup(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateAll(context.Background(), rules[i*engineBenchBatch:(i+1)*engineBenchBatch])
	}
}

// BenchmarkEngineBatchInstrumented is BenchmarkEngineBatch with a live
// telemetry registry wired through every layer it touches (the
// engine's batch histograms and mutation gauges, the cache counters,
// the evaluator's computed/cached counters). It is the overhead guard
// for the observability seam: compare against BenchmarkEngineBatch in
// BENCH_engine.json (tools/benchdiff automates the comparison) — the
// delta must stay within run-to-run noise, since every hook is atomic
// adds behind one nil check.
func BenchmarkEngineBatchInstrumented(b *testing.B) {
	ev, rules := benchEngineSetup(b, obs.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateAll(context.Background(), rules[i*engineBenchBatch:(i+1)*engineBenchBatch])
	}
}

// BenchmarkEnginePerRule dispatches the same 128-rule generations to
// the same engine one rule at a time — the pre-batching behaviour the
// scheduling pass replaces.
func BenchmarkEnginePerRule(b *testing.B) {
	ev, rules := benchEngineSetup(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rules[i*engineBenchBatch : (i+1)*engineBenchBatch] {
			ev.Evaluate(context.Background(), r)
		}
	}
}

// benchGrownSeries returns a series long enough for a 20k-pattern
// training prefix plus one 512-sample streaming chunk.
func benchGrownSeries(b *testing.B, n int) []float64 {
	b.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.3*math.Sin(2*math.Pi*float64(i)/13)
	}
	return v
}

// BenchmarkNewMatchIndex measures one rank-index build over the first
// 2,988 of the 5,976 D=24 training patterns of the paper's Venice
// workload. The first match query after an engine Append, Delete or
// Window builds such an index over the engine's rows.
func BenchmarkNewMatchIndex(b *testing.B) {
	venice, _, err := series.VenicePaper(6000, 1500, 3)
	if err != nil {
		b.Fatal(err)
	}
	v24, err := series.Window(venice, 24, 1)
	if err != nil {
		b.Fatal(err)
	}
	shard := &series.Dataset{Inputs: v24.Inputs[:2988], Targets: v24.Targets[:2988], D: 24, Horizon: 1}
	b.ReportAllocs()
	runtime.GC() // the allocation count is gated; keep the setup's collections out of it
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewMatchIndex(shard)
	}
}

// benchQueryRule is a one-gene rule for the lifecycle benchmarks'
// first query after a mutation: the query builds the index, and its
// own cost is small next to the build.
func benchQueryRule(d int) *core.Rule {
	cond := make([]core.Interval, d)
	for j := range cond {
		cond[j] = core.Wild()
	}
	cond[0] = core.NewInterval(0, 0.5)
	return core.NewRule(cond)
}

// BenchmarkShardsAppend measures streaming index maintenance: one
// 512-pattern chunk appended to a 20k-pattern engine whose index is
// built, then the first match query, which rebuilds the index over
// the grown rows. Only the Append and the query are timed, after a
// collection of the setup's garbage and with the collector parked, as
// in BenchmarkShardsDelete: a collection inside the timed rebuild would
// drop the pooled lookup scratch, and the allocation count would
// depend on when the collector ran.
func BenchmarkShardsAppend(b *testing.B) {
	b.StopTimer()
	const n, d, tail = 20000, 24, 512
	v := benchGrownSeries(b, n+tail+d)
	inputs := make([][]float64, 0, tail)
	targets := make([]float64, 0, tail)
	for i := n - d; i+d < len(v); i++ {
		inputs = append(inputs, v[i:i+d])
		targets = append(targets, v[i+d])
	}
	rule := benchQueryRule(d)
	dst := make([]int, 0, n+tail)
	for i := 0; i < b.N; i++ {
		ds, err := series.Window(series.New("bench", v[:n]), d, 1)
		if err != nil {
			b.Fatal(err)
		}
		s := engine.New(ds, engine.Options{})
		s.AppendMatches(dst, rule)
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		b.StartTimer()
		if err := s.Append(inputs, targets); err != nil {
			b.Fatal(err)
		}
		dst = s.AppendMatches(dst[:0], rule)
		b.StopTimer()
		debug.SetGCPercent(gc)
	}
}

// --- Dataset lifecycle (internal/engine) ---------------------------------

// BenchmarkShardsDelete measures a real 512-row window slide out of a
// 20k-pattern engine whose index is built: deleting the oldest rows
// removes them physically, and the first match query after it
// rebuilds the index over the remaining rows. Only the Delete and the
// query are timed, after a collection of the setup's garbage and with
// the collector parked, so a one-iteration run counts the same
// allocations as every later iteration.
func BenchmarkShardsDelete(b *testing.B) {
	b.StopTimer()
	const n, d, del = 20000, 24, 512
	v := benchGrownSeries(b, n+d)
	rule := benchQueryRule(d)
	dst := make([]int, 0, n)
	for i := 0; i < b.N; i++ {
		ds, err := series.Window(series.New("bench", v[:n]), d, 1)
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(ds, engine.Options{})
		eng.AppendMatches(dst, rule)
		ids := append([]series.RowID(nil), eng.Data().IDs[:del]...)
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		b.StartTimer()
		if got := eng.Delete(ids); got != del {
			b.Fatalf("deleted %d, want %d", got, del)
		}
		dst = eng.AppendMatches(dst[:0], rule)
		b.StopTimer()
		debug.SetGCPercent(gc)
	}
}

// BenchmarkGenerationStep measures one steady-state generation
// (selection, crossover, mutation, evaluation, crowding replacement).
func BenchmarkGenerationStep(b *testing.B) {
	ds := benchTrainDataset(b, 5000, 24)
	cfg := core.Default(24)
	cfg.PopSize = 100
	cfg.Generations = 0
	cfg.Runtime.Workers = 1
	ex, err := core.NewExecution(context.Background(), cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Step(context.Background())
	}
}

// BenchmarkFitAffineScratch measures one consequent regression — the
// normal-equation accumulation and solve behind every scored offspring
// — at the two shapes the end-to-end benchmark (perfbench) records:
// a Venice D=24 rule matching 4,879 rows (the regression-heavy
// workload's mean matched set) and a Mackey-Glass D=4 rule matching
// 107 rows. The scratch is warmed before the timer, so allocs/op is
// exactly the returned LinearFit and its coefficient slice; CI gates
// it.
func BenchmarkFitAffineScratch(b *testing.B) {
	venice, _, err := series.VenicePaper(6000, 1500, 3)
	if err != nil {
		b.Fatal(err)
	}
	v24, err := series.Window(venice, 24, 1)
	if err != nil {
		b.Fatal(err)
	}
	mg, _, err := series.MackeyGlassPaper()
	if err != nil {
		b.Fatal(err)
	}
	mg4, err := series.WindowEmbed(mg, 4, 6, 50)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ds   *series.Dataset
		n    int
	}{
		{"D24x4879", v24, 4879},
		{"D4x107", mg4, 107},
	} {
		xs, ys := c.ds.Inputs[:c.n], c.ds.Targets[:c.n]
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sc linalg.FitScratch
			if _, err := linalg.FitAffineScratch(xs, ys, 1e-8, &sc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.FitAffineScratch(xs, ys, 1e-8, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRuleSetPredict measures system prediction over one pattern
// with a 200-rule system.
func BenchmarkRuleSetPredict(b *testing.B) {
	ds := benchTrainDataset(b, 3000, 24)
	ev := core.NewEvaluator(ds, 0.5, 0, 1e-8, 1, core.EvalOptions{})
	pop := core.InitStratified(ds, 200)
	ev.EvaluateAll(context.Background(), pop)
	rs := core.NewRuleSet(24)
	rs.Add(pop...)
	pattern := ds.Inputs[42]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Predict(pattern)
	}
}

// --- Substrate benchmarks -------------------------------------------------

// BenchmarkMackeyGlassGenerate measures the RK4 delay-differential
// integration of the full 5000-sample series.
func BenchmarkMackeyGlassGenerate(b *testing.B) {
	cfg := series.DefaultMackeyGlass(5000)
	for i := 0; i < b.N; i++ {
		if _, err := series.MackeyGlass(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVeniceGenerate measures synthesis of one year of hourly
// Venice water levels.
func BenchmarkVeniceGenerate(b *testing.B) {
	cfg := series.DefaultVenice(8760, 1)
	for i := 0; i < b.N; i++ {
		if _, err := series.Venice(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPTrainEpoch measures one MLP training epoch on 5k
// 24-wide patterns.
func BenchmarkMLPTrainEpoch(b *testing.B) {
	ds := benchTrainDataset(b, 5000, 24)
	cfg := neural.DefaultMLP()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := neural.NewMLP(24, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Train(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRANTrainPass measures one sequential RAN pass on the
// Mackey-Glass training set.
func BenchmarkRANTrainPass(b *testing.B) {
	trainSeries, _, err := series.MackeyGlassPaper()
	if err != nil {
		b.Fatal(err)
	}
	train, err := series.WindowEmbed(trainSeries, 4, 6, 50)
	if err != nil {
		b.Fatal(err)
	}
	cfg := neural.DefaultRAN()
	cfg.Passes = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := neural.NewRAN(4, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Train(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelFold measures the chunked fold primitive the match
// scan is built on (1M-element sum).
func BenchmarkParallelFold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		parallel.Fold(1_000_000, 0,
			func() float64 { return 0 },
			func(acc float64, i int) float64 { return acc + float64(i) },
			func(a, c float64) float64 { return a + c })
	}
}
