package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/forecast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/rng"
)

// The traced run drives the workload's fit through the internal layers
// the facade composes — a store built directly (engine.New, or
// remote.Dial + Cluster.Load), core.NewExecution and Execution.Step for
// one execution, core.MultiRun for several — with the store wrapped in
// a timedStore. The program itself runs uninstrumented. Afterwards the
// recorded matched sets are replayed twice: through
// linalg.FitAffineScratch alone, which times the regressions, and
// through the whole fit again against a replayStore, which times
// everything but matching. The two replays and the match timings
// account for a generation's time; bench.unattributed_pct is what they
// leave over. Per-generation figures divide totals over whole
// executions, initialisation included, by the generations run, so that
// match, regression, the core remainder and the unattributed share add
// up to the executions' busy time.

// unattributedBound is the share of generation time the reconciliation
// may leave unexplained, in percent either way.
const unattributedBound = 25

// layers accumulates one run's per-layer measurements over its traced
// fits (a streaming session counts its fit and every refit).
type layers struct {
	fits     int // traced fits (streaming: sessions)
	gens     int
	replaced int
	execs    int

	buildS, storeS, initS []float64     // series build, store build, NewExecution
	genUS                 []float64     // per generation (or per stride window)
	busy, wall            time.Duration // Σ execution busy time; Σ wall time of the core drive
	replay                time.Duration // Σ execution busy time of the replayed fits
	replayMisses          int

	single, batch []matchCall
	liveRows      []float64 // live rows at each single-rule query's fit

	regress                  time.Duration
	regressFits, regressRows int
	flops, bytes             float64

	cacheHits, cacheMisses int
	verbs                  map[string][]time.Duration
	rpcResetNS, rpcBytes   int64

	tracedWall, plainWall, telWall []float64
}

// traced measures the per-layer metrics.
func (b *bench) traced(rep *report, measure time.Duration) error {
	deadline := time.Now().Add(measure)
	l := &layers{verbs: map[string][]time.Duration{}}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		in, err := b.w.build(b.seed)
		if err != nil {
			return err
		}
		l.buildS = append(l.buildS, seconds(time.Since(start)))
		b.in = in
	}
	if b.w.remote {
		var err error
		if b.srv, err = startServers(2); err != nil {
			return err
		}
	}

	// The untraced reference: the same work through the facade, plain
	// and with telemetry attached (no trace sink), alternated.
	var want string
	for i := 0; i < 2; i++ {
		for _, tel := range []bool{false, true} {
			opts := b.w.options(b.seed, b.addrs())
			if tel {
				opts = append(opts, forecast.WithTelemetry(forecast.NewTelemetry()))
			}
			wall, d, err := b.facadeRun(opts)
			if err != nil {
				return err
			}
			if tel {
				l.telWall = append(l.telWall, wall)
			} else {
				l.plainWall = append(l.plainWall, wall)
			}
			b.attempted++
			if want == "" {
				want = d
			} else if d != want {
				b.fail("%s facade digest %s differs from %s", b.w.name, d, want)
			}
		}
	}
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		b.attempted++
		d, err := b.tracedRun(l)
		if err != nil {
			return err
		}
		if d != want {
			b.fail("%s traced digest %s differs from the untraced %s", b.w.name, d, want)
		}
	}
	l.report(rep, b.w)
	return nil
}

// facadeRun times the workload's untraced work through the facade —
// one fit, or a streaming session's fit and rounds — and returns its
// wall time and digest.
func (b *bench) facadeRun(opts []forecast.Option) (float64, string, error) {
	r, err := b.fit(opts)
	if err != nil {
		return 0, "", err
	}
	defer r.f.Close()
	if !b.w.stream {
		return seconds(r.wall), r.digest, nil
	}
	wall := r.wall
	d, err := b.rounds(r, func(d time.Duration) { wall += d })
	return seconds(wall), d, err
}

// tracedRun drives one traced fit (or streaming session) and returns
// its digest.
func (b *bench) tracedRun(l *layers) (string, error) {
	ds, err := b.in.trainSet(b.w)
	if err != nil {
		return "", err
	}
	runtime.GC()
	start := time.Now()
	var st trainingStore
	var reg *obs.Registry
	if b.w.remote {
		cl, err := remote.Dial(b.ctx, b.addrs(), remote.Options{})
		if err != nil {
			return "", fmt.Errorf("dial shard servers: %w", err)
		}
		defer cl.Close()
		reg = obs.New()
		cl.Instrument(reg)
		if err := cl.Load(b.ctx, ds); err != nil {
			return "", fmt.Errorf("load shard servers: %w", err)
		}
		st = cl
	} else {
		st = engine.New(ds, engine.Options{Shards: 2})
	}
	work := time.Since(start) // store build plus fits and store verbs, not replays
	l.storeS = append(l.storeS, seconds(work))
	ts := newTimedStore(st)
	if b.w.stream {
		ts.Window(veniceWindow)
	}
	ts.Compact()
	cfg := core.Default(ds.D)
	cfg.Horizon = ds.Horizon
	cfg.PopSize = 100
	cfg.Generations = b.w.gens
	cfg.Seed = b.seed
	cfg.Runtime.Cache = st.Cache()

	rs, wall, err := b.drive(l, ts, cfg)
	if err != nil {
		return "", err
	}
	work += wall
	d, err := digest(rs)
	if err != nil {
		return "", err
	}
	digests := []string{d}
	if b.w.stream {
		for k := 0; k < rounds; k++ {
			inputs, targets := b.in.chunk(k)
			if err := ts.Append(inputs, targets); err != nil {
				return "", fmt.Errorf("round %d: %w", k, err)
			}
			ts.Window(veniceWindow)
			ts.Compact()
			if rs, wall, err = b.drive(l, ts, cfg); err != nil {
				return "", err
			}
			work += wall
			if d, err = digest(rs); err != nil {
				return "", err
			}
			digests = append(digests, d)
		}
		d = chain(digests)
	}
	hits, misses := st.Cache().Stats()
	l.cacheHits += hits
	l.cacheMisses += misses
	for verb, ds := range ts.verbs {
		l.verbs[verb] = append(l.verbs[verb], ds...)
		for _, d := range ds {
			work += d
		}
	}
	l.tracedWall = append(l.tracedWall, seconds(work))
	if reg != nil {
		snap := reg.Snapshot()
		if hv, ok := snap["rpc_client_reset_ns"].(obs.HistogramValue); ok {
			l.rpcResetNS += hv.Sum
		}
		if hv, ok := snap["rpc_client_matchbatch_bytes"].(obs.HistogramValue); ok {
			l.rpcBytes += hv.Sum
		}
	}
	l.fits++
	return d, nil
}

// drive runs one fit of cfg against the timed store's current data,
// then replays its matched sets; it returns the fitted rule set and the
// fit's wall time. The store's recorded calls are folded into l and
// reset.
func (b *bench) drive(l *layers, ts *timedStore, cfg core.Config) (*core.RuleSet, time.Duration, error) {
	data := ts.Data()
	cfg.Runtime.Backend = ts
	rs, busy, wall, err := b.runFit(l, cfg, data)
	if err != nil {
		return nil, 0, err
	}
	l.busy += busy
	l.wall += wall
	l.single = append(l.single, ts.single...)
	l.batch = append(l.batch, ts.batch...)
	for range ts.single {
		l.liveRows = append(l.liveRows, float64(ts.LiveLen()))
	}
	l.replayRegressions(ts.sets, data, cfg.Ridge)
	if b.w.execs > 1 {
		// Inside core.MultiRun initialisation is not separable from the
		// first generations: time one more NewExecution (execution 0's,
		// against a cold cache) on its own.
		c := cfg
		c.Seed = rng.New(cfg.Seed).SplitN(b.w.execs)[0].Seed()
		c.Runtime.Workers = 1
		c.Runtime.Backend = ts.Store
		c.Runtime.Cache = engine.NewSharedCache(0)
		start := time.Now()
		if _, err := core.NewExecution(b.ctx, c, data); err != nil {
			return nil, 0, fmt.Errorf("new execution: %w", err)
		}
		l.initS = append(l.initS, seconds(time.Since(start)))
	}

	// The same fit with matching answered from the recorded sets, and a
	// fresh cache, so its cache hits and misses repeat the original's.
	rp := &replayStore{Store: ts.Store, bySig: ts.bySig}
	cfg.Runtime.Backend = rp
	cfg.Runtime.Cache = engine.NewSharedCache(0)
	runtime.GC()
	if _, busy, _, err = b.runFit(nil, cfg, data); err != nil {
		return nil, 0, err
	}
	l.replay += busy
	l.replayMisses += rp.misses
	ts.reset()
	return rs, wall, nil
}

// runFit runs cfg on data the way the facade does — one execution, or
// core.MultiRun over the workload's executions — and returns the rule
// set, the executions' summed busy time and the wall time. With l set,
// it records generation times and replacement counts into l.
func (b *bench) runFit(l *layers, cfg core.Config, data *forecast.Dataset) (rs *core.RuleSet, busy, wall time.Duration, err error) {
	if b.w.execs == 1 {
		return b.runOne(l, cfg, data)
	}
	var mu sync.Mutex
	last := make([]time.Duration, b.w.execs)
	lastGen := make([]int, b.w.execs)
	var windows []float64
	start := time.Now()
	res, err := core.MultiRun(b.ctx, core.MultiRunConfig{
		Base:           cfg,
		CoverageTarget: 2, // run every execution, as the facade does without a target
		MaxExecutions:  b.w.execs,
		Parallelism:    2,
		ProgressEvery:  b.w.stride,
		OnProgress: func(i int, p core.Progress) bool {
			now := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			// The first window of an execution includes its initialisation.
			if g := p.Generation - lastGen[i]; g > 0 && lastGen[i] > 0 {
				windows = append(windows, micros(now-last[i])/float64(g))
			}
			last[i], lastGen[i] = now, p.Generation
			return true
		},
	}, data)
	wall = time.Since(start)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("multi-run: %w", err)
	}
	for _, t := range last {
		busy += t
	}
	if l != nil {
		l.genUS = append(l.genUS, windows...)
		l.execs += len(res.Executions)
		for _, s := range res.Executions {
			l.gens += s.Generations
			l.replaced += s.Replacements
		}
	}
	return res.RuleSet, busy, wall, nil
}

// runOne is core.MultiRun's single-execution case spelled out through
// NewExecution and Step, so that initialisation and every generation
// are timed on their own.
func (b *bench) runOne(l *layers, cfg core.Config, data *forecast.Dataset) (*core.RuleSet, time.Duration, time.Duration, error) {
	cfg.Seed = rng.New(cfg.Seed).SplitN(1)[0].Seed()
	cfg.Runtime.Workers = 1
	start := time.Now()
	ex, err := core.NewExecution(b.ctx, cfg, data)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("new execution: %w", err)
	}
	init := time.Since(start)
	gens := make([]float64, 0, cfg.Generations)
	for g := 0; g < cfg.Generations; g++ {
		if err := ex.Eval.BackendErr(); err != nil {
			return nil, 0, 0, err
		}
		t := time.Now()
		ex.Step(b.ctx)
		gens = append(gens, micros(time.Since(t)))
	}
	wall := time.Since(start)
	if l != nil {
		l.initS = append(l.initS, seconds(init))
		l.genUS = append(l.genUS, gens...)
		l.execs++
		l.gens += ex.Stats.Generations
		l.replaced += ex.Stats.Replacements
	}
	rs := core.NewRuleSet(data.D)
	rs.Add(ex.ValidRules()...)
	return rs, wall, wall, nil
}

// replayRegressions re-runs the regression of every matched set a fit
// evaluated (those of two rows or more, as the evaluator does) through
// linalg.FitAffineScratch and times it. Sets are gathered in batches
// outside the timed loop, so the timer brackets only regressions.
func (l *layers) replayRegressions(sets [][]int, data *forecast.Dataset, ridge float64) {
	var sc linalg.FitScratch
	type job struct {
		xs [][]float64
		ys []float64
	}
	var jobs []job
	rows := 0
	flush := func() {
		start := time.Now()
		for _, j := range jobs {
			if _, err := linalg.FitAffineScratch(j.xs, j.ys, ridge, &sc); err != nil {
				continue // the evaluator falls back to the mean; nothing to time
			}
		}
		l.regress += time.Since(start)
		jobs, rows = jobs[:0], 0
	}
	d := float64(data.D)
	p := d + 1
	for _, set := range sets {
		if len(set) < 2 {
			continue
		}
		j := job{xs: make([][]float64, len(set)), ys: make([]float64, len(set))}
		for k, i := range set {
			j.xs[k], j.ys[k] = data.Inputs[i], data.Targets[i]
		}
		jobs = append(jobs, j)
		rows += len(set)
		n := float64(len(set))
		l.regressFits++
		l.regressRows += len(set)
		// Computed, not counted: every gene nonzero, per row D²+4D+2
		// flops of rank-1 update, then ridge, Cholesky and two solves.
		l.flops += n*(d*d+4*d+2) + p + p*(p+1)*(2*p+1)/6 + 2*p*p
		l.bytes += n * 8 * (d + 1) // each row and its target read once
		if rows >= 1<<18 {
			flush()
		}
	}
	flush()
}

// report turns the accumulated measurements into the per-layer metrics.
// Metrics of a layer the workload does not use read 0.
func (l *layers) report(rep *report, w *workload) {
	fits, gens := float64(l.fits), float64(l.gens)
	var match time.Duration
	rows := 0
	var selectivity []float64
	for i, c := range l.single {
		match += c.d
		rows += c.rows
		selectivity = append(selectivity, ratio(float64(c.rows), l.liveRows[i]))
	}
	var batchMS, batchRules []float64
	for _, c := range l.batch {
		match += c.d
		batchMS = append(batchMS, millis(c.d))
		batchRules = append(batchRules, float64(c.rules))
	}
	singleUS := make([]float64, len(l.single))
	for i, c := range l.single {
		singleUS[i] = micros(c.d)
	}
	calls := float64(len(l.single))

	rep.add("series.build_s", median(l.buildS), "s", true)
	rep.add("forecast.store_build_s", median(l.storeS), "s", true)
	rep.add("core.init_s", median(l.initS), "s", true)
	rep.add("core.gen_us_p50", quantile(l.genUS, 0.5), "us", true)
	rep.add("core.gen_us_p99", quantile(l.genUS, 0.99), "us", true)
	rep.add("core.other_us_per_gen", micros(l.replay-l.regress)/gens, "us", true)
	rep.add("core.replace_ratio", ratio(float64(l.replaced), gens), "1", true)

	// Single-rule queries are engine matches in process and scatter/
	// gather RPCs against the cluster; the other side reads 0.
	onEngine, onCluster := 1.0, 0.0
	if w.remote {
		onEngine, onCluster = 0, 1
	}
	rep.add("engine.match_calls", onEngine*calls/fits, "count", true)
	rep.add("engine.match_us_p50", onEngine*quantile(singleUS, 0.5), "us", true)
	rep.add("engine.match_us_p99", onEngine*quantile(singleUS, 0.99), "us", true)
	rep.add("engine.match_us_per_gen", onEngine*micros(match)/gens, "us", true)
	rep.add("engine.rows_per_match", ratio(float64(rows), calls), "count", true)
	rep.add("engine.selectivity", median(selectivity), "1", true)
	rep.add("engine.batch_calls", float64(len(l.batch))/fits, "count", true)
	rep.add("engine.batch_rules_mean", ratio(sum(batchRules), float64(len(batchRules))), "count", true)
	rep.add("engine.batch_ms_p50", median(batchMS), "ms", true)
	rep.add("engine.cache_hits", float64(l.cacheHits)/fits, "count", true)
	rep.add("engine.cache_misses", float64(l.cacheMisses)/fits, "count", true)
	rep.add("engine.cache_hit_ratio", ratio(float64(l.cacheHits), float64(l.cacheHits+l.cacheMisses)), "1", true)
	for _, verb := range []string{"append", "window", "compact"} {
		v := 0.0
		if w.stream {
			v = millisMedian(l.verbs[verb])
		}
		rep.add("engine."+verb+"_ms", v, "ms", true)
	}

	rpcs := calls + float64(len(l.batch))
	rep.add("remote.rpc_calls", onCluster*rpcs/fits, "count", true)
	rep.add("remote.rpcs_per_gen", onCluster*rpcs/gens, "1", true)
	rep.add("remote.rpc_us_p50", onCluster*quantile(singleUS, 0.5), "us", true)
	rep.add("remote.rpc_us_p99", onCluster*quantile(singleUS, 0.99), "us", true)
	rep.add("remote.rpc_us_per_gen", onCluster*micros(match)/gens, "us", true)
	rep.add("remote.load_s", float64(l.rpcResetNS)/1e9/fits, "s", true)
	rep.add("remote.bytes_per_gen", float64(l.rpcBytes)/gens, "B", true)

	fitsN := float64(l.regressFits)
	rep.add("linalg.fits", fitsN/fits, "count", true)
	rep.add("linalg.rows_per_fit", ratio(float64(l.regressRows), fitsN), "count", true)
	rep.add("linalg.regress_us_per_gen", micros(l.regress)/gens, "us", true)
	rep.add("linalg.flops_per_fit", ratio(l.flops, fitsN), "flop", true)
	rep.add("linalg.bytes_per_fit", ratio(l.bytes, fitsN), "B", true)
	rep.add("linalg.gflops", ratio(l.flops, float64(l.regress)), "GFLOP/s", true)
	rep.note("linalg flops and bytes are computed from each fit's rows and D, not counted")

	rep.add("parallel.wave_efficiency", ratio(float64(l.busy), 2*float64(l.wall)), "1", true)

	unattributed := 100 * ratio(float64(l.busy-match-l.replay), float64(l.busy))
	rep.add("bench.unattributed_pct", unattributed, "%", true)
	rep.note(fmt.Sprintf("bench.unattributed_pct bound: within ±%d%%: %v (replayed queries without a recorded set: %d)",
		unattributedBound, unattributed >= -unattributedBound && unattributed <= unattributedBound, l.replayMisses))
	plain := median(l.plainWall)
	rep.add("bench.trace_overhead_pct", 100*(ratio(median(l.tracedWall), plain)-1), "%", true)
	rep.add("obs.overhead_pct", 100*(ratio(median(l.telWall), plain)-1), "%", true)
	rep.note(fmt.Sprintf("%d traced fits, %d executions, %d generations", l.fits, l.execs, l.gens))
}

func millisMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = millis(d)
	}
	return median(xs)
}
