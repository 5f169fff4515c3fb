package core

import (
	"context"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/series"
)

// Evaluator fits rules against a fixed training dataset and computes
// the paper's fitness. One Evaluator is shared by a whole execution;
// it is safe for concurrent use by multiple goroutines: the dataset
// and backend are read-only (or internally synchronized) and the
// evaluation cache is internally synchronized.
//
// Every match query goes through one Backend: a MatchIndex by default,
// or the sharded engine (internal/engine) or remote cluster
// (internal/remote). Each returns exact matched sets, and all
// regression/fitness math lives here, so every backend yields
// bit-identical evaluations.
type Evaluator struct {
	data    *series.Dataset
	emax    float64
	fmin    float64
	ridge   float64
	workers int
	backend Backend
	// backendCtx and health cache the backend's optional BackendCtx
	// and BackendHealth sides (one type assertion at construction, not
	// one per evaluation); nil when the backend doesn't implement them.
	backendCtx BackendCtx
	health     BackendHealth
	// local is the backend when it is an in-process MatchIndex.
	// Batching buys an index nothing, so EvaluateAll matches each rule
	// on the worker that regresses it, and Evaluate's scan fallback
	// fans out over workers.
	local *MatchIndex
	cache *ResultCache

	// Telemetry counters (nil handles no-op): full evaluations
	// performed vs results served from the cache.
	evalsComputed *obs.Counter
	evalsCached   *obs.Counter
}

// EvalOptions carries the optional shared machinery an Evaluator can
// be built around. All fields may be nil; the zero value reproduces a
// self-contained evaluator with its own index and private cache.
type EvalOptions struct {
	// Backend answers every match query: a MatchIndex shared by the
	// callers that evaluate one dataset many times (multi-run,
	// islands, the Pittsburgh baseline), the sharded engine or the
	// remote cluster. Nil, or a backend whose Data() is not the
	// evaluator's dataset, makes the evaluator build its own
	// MatchIndex.
	Backend Backend
	// Cache replaces the evaluator's own result cache. Only the
	// end-to-end benchmark (perfbench) sets it, sharing one cache
	// across executions through Runtime.Cache; the field stays until
	// that benchmark drops it. Keys embed the data epoch and evaluator
	// parameters, so sharing never changes results. Ignored unless
	// Backend is adopted: keys carry no dataset identity of their own
	// — it is the backend (same-data by the sharing predicate,
	// epoch-stamped against mutations) that scopes them.
	Cache *ResultCache
	// Telemetry registers the computed-vs-cached evaluation counters;
	// nil disables them (see Runtime.Telemetry).
	Telemetry *obs.Registry
}

// NewEvaluator builds an evaluator over the training dataset wired to
// whatever subset of shared machinery the options carry. emax and fmin
// are the paper's EMAX and f_min; ridge regularizes the consequent
// regression; workers bounds the batch regressions and the reference
// scan (0 = GOMAXPROCS).
func NewEvaluator(data *series.Dataset, emax, fmin, ridge float64, workers int, opt EvalOptions) *Evaluator {
	e := &Evaluator{
		data:    data,
		emax:    emax,
		fmin:    fmin,
		ridge:   ridge,
		workers: workers,
	}
	if b := opt.Backend; b != nil && b.Data() == data {
		e.backend, e.cache = b, opt.Cache
	} else {
		e.backend = NewMatchIndex(data)
	}
	e.backendCtx, _ = e.backend.(BackendCtx)
	e.health, _ = e.backend.(BackendHealth)
	e.local, _ = e.backend.(*MatchIndex)
	if e.cache == nil {
		e.cache = NewResultCache()
	}
	if opt.Telemetry != nil {
		e.evalsComputed = opt.Telemetry.Counter("core_evals_computed")
		e.evalsCached = opt.Telemetry.Counter("core_evals_cached")
	}
	return e
}

// EMax returns the evaluator's EMAX parameter.
func (e *Evaluator) EMax() float64 { return e.emax }

// Data returns the training dataset the evaluator scores against.
func (e *Evaluator) Data() *series.Dataset { return e.data }

// Backend returns the evaluator's match backend (its own MatchIndex
// when none was adopted).
func (e *Evaluator) Backend() Backend { return e.backend }

// BackendErr reports the backend's sticky out-of-band failure (see
// BackendHealth), or nil for healthy and in-process backends. The run
// loops poll it between generations so a lost shard server aborts the
// run with an error instead of evolving against incomplete matches.
func (e *Evaluator) BackendErr() error {
	if e.health != nil {
		return e.health.BackendErr()
	}
	return nil
}

// MatchIndicesScan is the reference implementation of the paper's
// C_R(S): a linear scan of every training pattern, chunked over
// goroutines for large datasets with chunk-ordered merging keeping the
// result deterministic. It is exported for benchmarks and equivalence
// tests; every backend must return exactly its set.
func (e *Evaluator) MatchIndicesScan(r *Rule) []int { return scanMatches(e.data, r, e.workers) }

// scanMatches is the scan behind MatchIndicesScan, and the fallback a
// MatchIndex takes where it cannot answer (NaN data or bounds).
func scanMatches(data *series.Dataset, r *Rule, workers int) []int {
	n := data.Len()
	// Parallelism pays only for large scans; the threshold keeps the
	// tiny datasets in unit tests on the fast serial path.
	if n < 4096 || parallel.Workers(workers) == 1 {
		var out []int
		for i := 0; i < n; i++ {
			if r.Match(data.Inputs[i]) {
				out = append(out, i)
			}
		}
		return out
	}
	return parallel.Fold(n, workers,
		func() []int { return nil },
		func(acc []int, i int) []int {
			if r.Match(data.Inputs[i]) {
				acc = append(acc, i)
			}
			return acc
		},
		func(a, b []int) []int { return append(a, b...) })
}

// evalKey builds the cache key for a conditional part: the backend's
// data epoch (always 0 for an immutable MatchIndex), the IEEE-754
// bits of the evaluator parameters the result depends on, and the
// byte-exact gene signature. Epoch-prefixing means a result computed
// before a streaming append can never be served afterwards — the key
// itself has expired.
func (e *Evaluator) evalKey(cond []Interval) string {
	b := make([]byte, 0, 32+len(cond)*17)
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], e.backend.Epoch())
	b = append(b, u[:]...)
	binary.LittleEndian.PutUint64(u[:], math.Float64bits(e.emax))
	b = append(b, u[:]...)
	binary.LittleEndian.PutUint64(u[:], math.Float64bits(e.fmin))
	b = append(b, u[:]...)
	binary.LittleEndian.PutUint64(u[:], math.Float64bits(e.ridge))
	b = append(b, u[:]...)
	return string(appendCondKey(b, cond))
}

// Evaluate fits the rule's consequent on its matched training points
// and assigns Prediction, Error, Matches and Fitness in place,
// implementing §3.1's procedure and fitness function:
//
//	IF NR > 1 AND eR < EMAX THEN fitness = NR*EMAX - eR ELSE fitness = f_min
//
// Rules matching zero or one point keep (or are assigned) a degenerate
// consequent and the fitness floor.
//
// Results are memoized by signature: an offspring whose genes survived
// mutation/crossover unchanged reuses the prior match scan and
// regression bit-for-bit instead of recomputing them.
//
// ctx reaches the match query: against a BackendCtx backend (the
// remote cluster) the RPC is cancellable by the caller and inherits
// its trace span. A result cut short by cancellation or a backend
// fault is discarded — the rule keeps its prior fields and nothing is
// cached; the run loops poll BackendErr and abort with the failure.
func (e *Evaluator) Evaluate(ctx context.Context, r *Rule) {
	key := e.evalKey(r.Cond)
	if c := e.cache.Get(key); c != nil {
		c.apply(r)
		e.evalsCached.Inc()
		return
	}
	var idx []int
	switch {
	case e.local != nil:
		idx = e.local.match(r, e.workers)
	case e.backendCtx != nil:
		idx = e.backendCtx.MatchIndicesCtx(ctx, r)
	default:
		idx = e.backend.MatchIndices(r)
	}
	if ctx.Err() != nil || e.BackendErr() != nil {
		return
	}
	e.evalFromMatches(r, idx)
	e.cache.Put(key, resultOf(r))
	e.evalsComputed.Inc()
}

// prefetch scores speculative rules through EvaluateAll only to warm
// the evaluation cache. The computed-vs-cached counters keep counting
// real evaluations, so a copy without them does the work. A failure
// needs no handling here: nothing incomplete is cached, and the real
// evaluation that follows meets the same failure and surfaces it.
func (e *Evaluator) prefetch(ctx context.Context, rules []*Rule) {
	spec := *e
	spec.evalsComputed, spec.evalsCached = nil, nil
	_ = spec.EvaluateAll(ctx, rules)
}

// fitScratch is the per-worker scratch one evaluation reuses across
// rules: the xs/ys gather buffers and the linalg normal-equation
// storage. Pooled so steady-state batch evaluation allocates only
// what escapes into results (the fresh LinearFit per rule).
type fitScratch struct {
	xs [][]float64
	ys []float64
	nf linalg.FitScratch
}

var fitScratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

// evalFromMatches is the post-match half of an evaluation: given the
// rule's matched training indices, fit the consequent and assign the
// paper's fitness. Both Evaluate and EvaluateAll end here, which is
// what keeps them bit-identical.
func (e *Evaluator) evalFromMatches(r *Rule, idx []int) {
	fs := fitScratchPool.Get().(*fitScratch)
	e.evalFromMatchesScratch(r, idx, fs)
	fitScratchPool.Put(fs)
}

// evalFromMatchesScratch is evalFromMatches through caller-owned
// scratch. Nothing scratch-backed escapes into the rule: the
// LinearFit (and its Coef) assigned to r.Fit is freshly allocated by
// the fit itself.
func (e *Evaluator) evalFromMatchesScratch(r *Rule, idx []int, fs *fitScratch) {
	r.Matches = len(idx)
	if len(idx) == 0 {
		// No evidence at all: no consequent, floor fitness. Prediction
		// keeps whatever prior value it had (initialization sets bin
		// centers) so crowding distance stays meaningful.
		r.Fit = nil
		r.Error = math.Inf(1)
		r.Fitness = e.fmin
		return
	}

	if cap(fs.xs) < len(idx) {
		fs.xs = make([][]float64, len(idx))
		fs.ys = make([]float64, len(idx))
	}
	xs := fs.xs[:len(idx)]
	ys := fs.ys[:len(idx)]
	for k, i := range idx {
		xs[k] = e.data.Inputs[i]
		ys[k] = e.data.Targets[i]
	}

	if len(idx) == 1 {
		// A single point determines a constant consequent; the paper's
		// NR>1 gate keeps it at floor fitness regardless.
		r.Fit = &linalg.LinearFit{Coef: make([]float64, e.data.D), Intercept: ys[0]}
		r.Prediction = ys[0]
		r.Error = 0
		r.Fitness = e.fmin
		return
	}

	fit, err := linalg.FitAffineScratch(xs, ys, e.ridge, &fs.nf)
	if err != nil {
		// Pathological geometry even with ridge: fall back to the mean
		// predictor so the rule still has defined behaviour.
		mean := 0.0
		for _, y := range ys {
			mean += y
		}
		mean /= float64(len(ys))
		fit = &linalg.LinearFit{Coef: make([]float64, e.data.D), Intercept: mean}
	}
	r.Fit = fit
	// One fused pass computes the paper's e_R (max absolute residual)
	// and the representative prediction (mean regression output over
	// matches) from the same per-row Predict value — identical
	// operations to running MaxAbsResidual then a mean loop, without
	// evaluating the fit twice per row.
	maxAbs, sum := 0.0, 0.0
	for k, row := range xs {
		pred := fit.Predict(row)
		if res := math.Abs(ys[k] - pred); res > maxAbs {
			maxAbs = res
		}
		sum += pred
	}
	r.Error = maxAbs
	r.Prediction = sum / float64(len(xs))

	if r.Matches > 1 && r.Error < e.emax {
		r.Fitness = float64(r.Matches)*e.emax - r.Error
	} else {
		r.Fitness = e.fmin
	}
}

// CacheStats returns the evaluation cache's hit and miss counts (a
// diagnostics hook for tests, benches and progress reporting).
func (e *Evaluator) CacheStats() (hits, misses int) { return e.cache.Stats() }

// EvaluateAll evaluates a whole generation of rules in one scheduling
// pass: signatures are deduplicated first (offspring that collapsed to
// the same conditional part are computed once), cache hits are peeled
// off, and the surviving unique rules go to Backend.MatchBatch, which
// answers them all in one call (one walk of each engine shard, one
// cluster round trip). Consequent regressions then run in parallel
// across rules. An in-process MatchIndex gains nothing from batching,
// so there each worker matches its rule just before regressing it, and
// matching runs in parallel too. Results are bit-identical to calling
// Evaluate on each rule in order, so scheduling cannot change outcomes.
//
// Cancellation discards the batch: a MatchBatch cut short by the
// context returns incomplete matched sets, so nothing from a cancelled
// pass is cached or applied — the rules keep their prior fields (or,
// when the regressions were cut short, hold complete evaluations that
// are not cached) and EvaluateAll returns ctx.Err(). A backend fault
// is handled the same way and returned.
func (e *Evaluator) EvaluateAll(ctx context.Context, rules []*Rule) error {
	keys := make([]string, len(rules))
	for i, r := range rules {
		keys[i] = e.evalKey(r.Cond)
	}
	results := make(map[string]*EvalResult, len(rules))
	// canonical marks the rule that computes its signature's result in
	// place: evalFromMatches already wrote the exact evaluation into
	// it, so the final apply pass (which clones the Fit) would be a
	// no-op re-assignment and is skipped.
	canonical := make([]bool, len(rules))
	var work []*Rule
	var workKeys []string
	for i, r := range rules {
		k := keys[i]
		if _, dup := results[k]; dup {
			continue
		}
		if c := e.cache.Get(k); c != nil {
			results[k] = c
			continue
		}
		results[k] = nil // claim the slot; filled below
		canonical[i] = true
		work = append(work, r)
		workKeys = append(workKeys, k)
	}
	if len(work) > 0 {
		var matched [][]int
		if e.local == nil {
			matched = e.backend.MatchBatch(ctx, work)
		} else {
			matched = make([][]int, len(work)) // filled per rule below
		}
		if err := ctx.Err(); err != nil {
			// The matched sets may be truncated: drop the whole batch on
			// the floor. Nothing has been cached or applied yet, so the
			// rules' prior evaluations stay intact.
			return err
		}
		if err := e.BackendErr(); err != nil {
			// Same discard for an out-of-band backend fault (a lost
			// shard server): the sets are untrustworthy, cache and
			// rules stay untouched, the caller gets the failure.
			return err
		}
		fresh := make([]*EvalResult, len(work))
		if parallel.ForCtx(ctx, len(work), e.workers, func(i int) {
			if e.local != nil {
				matched[i] = e.local.match(work[i], 1)
			}
			e.evalFromMatches(work[i], matched[i])
			fresh[i] = resultOf(work[i])
		}) != nil {
			// Some regressions ran (and wrote into their work[i] rules),
			// some did not; refuse to cache or apply any of it. The rules
			// touched by evalFromMatches hold complete, correct
			// evaluations — just not the full batch — so a best-so-far
			// snapshot remains sound.
			return ctx.Err()
		}
		for i, k := range workKeys {
			e.cache.Put(k, fresh[i])
			results[k] = fresh[i]
		}
		e.evalsComputed.Add(uint64(len(work)))
	}
	e.evalsCached.Add(uint64(len(rules) - len(work)))
	for i, r := range rules {
		if canonical[i] {
			continue // already holds its freshly computed evaluation
		}
		results[keys[i]].apply(r)
	}
	return nil
}
