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
// and match index are read-only after construction and the evaluation
// cache is internally synchronized.
//
// Matching goes through one of two interchangeable paths: the
// evaluator's own MatchIndex (the sequential single-index path), or a
// pluggable Backend such as the sharded engine in internal/engine.
// Both return exact matched sets, and all regression/fitness math
// lives here, so the paths are bit-identical by construction.
type Evaluator struct {
	data    *series.Dataset
	emax    float64
	fmin    float64
	ridge   float64
	workers int
	idx     *MatchIndex // nil when backend is set
	backend Backend
	// backendCtx caches the backend's optional BackendCtx side (one
	// type assertion at construction, not one per evaluation); nil when
	// the backend doesn't implement it.
	backendCtx BackendCtx
	cache      EvalCache

	// Telemetry counters (nil handles no-op): full evaluations
	// performed vs results served from the cache.
	evalsComputed *obs.Counter
	evalsCached   *obs.Counter
}

// EvalOptions carries the optional shared machinery an Evaluator can
// be built around. All fields may be nil; the zero value reproduces a
// self-contained evaluator with its own index and private cache.
type EvalOptions struct {
	// Index reuses a prebuilt MatchIndex so callers evaluating the
	// same dataset many times (multi-run, islands, the Pittsburgh
	// baseline) pay index construction once. Ignored (a fresh index is
	// built) when nil or built over a different dataset.
	Index *MatchIndex
	// Backend routes all match queries through an external engine
	// (see internal/engine). Ignored unless Backend.Data() is the
	// evaluator's dataset — the same sharing predicate as Index. When
	// adopted, no private MatchIndex is built at all.
	Backend Backend
	// Cache replaces the evaluator-private result cache with a shared
	// one. Cache keys embed the data epoch and evaluator parameters,
	// so evaluators with different EMAX/f_min/ridge can safely share
	// one store. Ignored unless Backend is adopted: keys carry no
	// dataset identity of their own — it is the backend (same-data by
	// the sharing predicate, epoch-stamped against appends) that
	// scopes them, so a cache without its backend could leak results
	// across datasets or data epochs.
	Cache EvalCache
	// Telemetry registers the computed-vs-cached evaluation counters;
	// nil disables them (see Runtime.Telemetry).
	Telemetry *obs.Registry
}

// NewEvaluator builds an evaluator over the training dataset,
// including its own indexed match engine. emax and fmin are the
// paper's EMAX and f_min; ridge regularizes the consequent
// regression; workers bounds the parallel fallback scan
// (0 = GOMAXPROCS).
func NewEvaluator(data *series.Dataset, emax, fmin, ridge float64, workers int) *Evaluator {
	return NewEvaluatorOpt(data, emax, fmin, ridge, workers, EvalOptions{})
}

// NewEvaluatorWith is NewEvaluator reusing a prebuilt MatchIndex; see
// EvalOptions.Index.
func NewEvaluatorWith(data *series.Dataset, emax, fmin, ridge float64, workers int, idx *MatchIndex) *Evaluator {
	return NewEvaluatorOpt(data, emax, fmin, ridge, workers, EvalOptions{Index: idx})
}

// NewEvaluatorOpt is the general constructor: an evaluator over the
// training dataset wired to whatever subset of shared machinery the
// options carry.
func NewEvaluatorOpt(data *series.Dataset, emax, fmin, ridge float64, workers int, opt EvalOptions) *Evaluator {
	e := &Evaluator{
		data:    data,
		emax:    emax,
		fmin:    fmin,
		ridge:   ridge,
		workers: workers,
	}
	if opt.Backend != nil && opt.Backend.Data() == data {
		e.backend = opt.Backend
		e.backendCtx, _ = opt.Backend.(BackendCtx)
		if opt.Cache != nil {
			e.cache = opt.Cache
		}
	} else {
		e.idx = ensureIndex(opt.Index, data)
	}
	if e.cache == nil {
		e.cache = newEvalCache()
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

// Index returns the evaluator's match index so it can be shared with
// other evaluators over the same dataset. It is nil when the
// evaluator matches through a Backend instead.
func (e *Evaluator) Index() *MatchIndex { return e.idx }

// Backend returns the evaluator's match backend, or nil when it runs
// on its own single index.
func (e *Evaluator) Backend() Backend { return e.backend }

// BackendErr reports the backend's sticky out-of-band failure (see
// BackendHealth), or nil for healthy and in-process backends. The run
// loops poll it between generations so a lost shard server aborts the
// run with an error instead of evolving against incomplete matches.
func (e *Evaluator) BackendErr() error {
	if h, ok := e.backend.(BackendHealth); ok {
		return h.BackendErr()
	}
	return nil
}

// MatchIndices returns the indices of training patterns matched by
// the rule — the paper's C_R(S) — in ascending order. With a backend
// the query fans out across its shards; otherwise the match index
// answers it, and only NaN data or NaN gene bounds fall back to the
// chunk-parallel scan. All paths return identical results, so the
// choice (and the parallelism degree) never affects outcomes.
func (e *Evaluator) MatchIndices(r *Rule) []int {
	if e.backend != nil {
		return e.backend.MatchIndices(r)
	}
	if out, ok := e.idx.Lookup(r); ok {
		return out
	}
	return e.MatchIndicesScan(r)
}

// MatchIndicesScan is the reference implementation: a linear scan of
// every training pattern, chunked over goroutines for large datasets
// with chunk-ordered merging keeping the result deterministic. It is
// exported for benchmarks and equivalence tests; MatchIndices is the
// fast path.
func (e *Evaluator) MatchIndicesScan(r *Rule) []int {
	n := e.data.Len()
	// Parallelism pays only for large scans; the threshold keeps the
	// tiny datasets in unit tests on the fast serial path.
	if n < 4096 || parallel.Workers(e.workers) == 1 {
		var out []int
		for i := 0; i < n; i++ {
			if r.Match(e.data.Inputs[i]) {
				out = append(out, i)
			}
		}
		return out
	}
	return parallel.Fold(n, e.workers,
		func() []int { return nil },
		func(acc []int, i int) []int {
			if r.Match(e.data.Inputs[i]) {
				acc = append(acc, i)
			}
			return acc
		},
		func(a, b []int) []int { return append(a, b...) })
}

// evalKey builds the cache key for a conditional part: the backend's
// data epoch (0 without a backend — the dataset is then immutable),
// the IEEE-754 bits of the evaluator parameters the result depends
// on, and the byte-exact gene signature. Epoch-prefixing means a
// result computed before a streaming append can never be served
// afterwards — the key itself has expired.
func (e *Evaluator) evalKey(cond []Interval) string {
	var epoch uint64
	if e.backend != nil {
		epoch = e.backend.Epoch()
	}
	b := make([]byte, 0, 32+len(cond)*17)
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], epoch)
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
func (e *Evaluator) Evaluate(r *Rule) {
	key := e.evalKey(r.Cond)
	if c := e.cache.Get(key); c != nil {
		c.apply(r)
		e.evalsCached.Inc()
		return
	}
	idx := e.MatchIndices(r)
	if e.BackendErr() != nil {
		// A faulted backend returns incomplete matched sets: leave the
		// rule's prior evaluation intact and cache nothing. The run
		// loops poll BackendErr and abort with the failure.
		return
	}
	e.evalFromMatches(r, idx)
	e.cache.Put(key, resultOf(r))
	e.evalsComputed.Inc()
}

// EvaluateCtx is Evaluate with the caller's context threaded into the
// match query: against a BackendCtx backend (the remote cluster) the
// RPC becomes cancellable by the caller and inherits its trace span,
// so a traced run shows every single-rule match it issues. A result
// cut short by cancellation is discarded exactly like a backend
// fault — the rule keeps its prior fields and nothing is cached.
// Otherwise identical to Evaluate, bit for bit.
func (e *Evaluator) EvaluateCtx(ctx context.Context, r *Rule) {
	key := e.evalKey(r.Cond)
	if c := e.cache.Get(key); c != nil {
		c.apply(r)
		e.evalsCached.Inc()
		return
	}
	var idx []int
	if e.backendCtx != nil {
		idx = e.backendCtx.MatchIndicesCtx(ctx, r)
	} else {
		idx = e.MatchIndices(r)
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
// paper's fitness. Both the per-rule and the batched path end here,
// which is what keeps them bit-identical.
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
// diagnostics hook for tests, benches and progress reporting). With a
// shared cache the counts aggregate every participating evaluator.
func (e *Evaluator) CacheStats() (hits, misses int) { return e.cache.Stats() }

// EvaluateAll evaluates every rule. With a backend the whole slice is
// served by one batched scheduling pass (EvaluateBatch); otherwise it
// parallelizes across rules (the per-rule work then runs serially,
// avoiding nested parallelism). The workers share the match machinery
// and evaluation cache; cached results are bit-identical to
// recomputation, so scheduling cannot change outcomes.
//
// The context bounds the whole pass. On cancellation EvaluateAll
// returns ctx.Err() promptly and the rules are in a mixed state: some
// carry fresh evaluations, the rest still hold their prior fields —
// but never a partial result, so any snapshot the caller keeps is
// self-consistent.
func (e *Evaluator) EvaluateAll(ctx context.Context, rules []*Rule) error {
	if e.backend != nil && len(rules) > 1 {
		return e.EvaluateBatch(ctx, rules)
	}
	serial := *e
	serial.workers = 1
	// Each iteration is one complete rule evaluation (match, regression
	// and cache insert are atomic per rule), so stopping between
	// iterations can never publish a torn result.
	if err := parallel.ForCtx(ctx, len(rules), e.workers, func(i int) { serial.EvaluateCtx(ctx, rules[i]) }); err != nil {
		return err
	}
	// Evaluate cannot report a backend fault itself (it skips the rule
	// instead); surface it here so batch callers see the failure.
	return e.BackendErr()
}

// EvaluateBatch evaluates a whole generation of rules through the
// backend in one scheduling pass: signatures are deduplicated first
// (offspring that collapsed to the same conditional part are computed
// once), cache hits are peeled off, and the surviving unique rules go
// to Backend.MatchBatch, which walks each shard once for the whole
// batch instead of dispatching rule by rule. Consequent
// regressions then run in parallel across rules. Results are
// bit-identical to calling Evaluate on each rule in order.
//
// Cancellation discards the batch: a MatchBatch cut short by the
// context returns incomplete matched sets, so nothing from a cancelled
// pass is cached or applied — the rules keep their prior fields and
// EvaluateBatch returns ctx.Err().
func (e *Evaluator) EvaluateBatch(ctx context.Context, rules []*Rule) error {
	if e.backend == nil {
		// No batching substrate: preserve the semantics anyway.
		for _, r := range rules {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.EvaluateCtx(ctx, r)
		}
		return nil
	}
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
		matched := e.backend.MatchBatch(ctx, work)
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
		serial := *e
		serial.workers = 1
		if parallel.ForCtx(ctx, len(work), e.workers, func(i int) {
			serial.evalFromMatches(work[i], matched[i])
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
