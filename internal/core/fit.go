package core

import (
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/series"
)

// Evaluator fits rules against a fixed training dataset and computes
// the paper's fitness. One Evaluator is shared by a whole execution.
// Evaluate and EvaluateAll are safe for concurrent use by multiple
// goroutines: the dataset and backend are read-only (or internally
// synchronized) and the evaluation cache is internally synchronized.
// What only the run loop uses — the matched sets it keeps (prefetch, a
// pruned evaluate over the cluster), the matched-set memo and the
// evaluator's own scratch — is touched only by the execution that owns
// the evaluator.
//
// Every match query goes through one Backend: a MatchIndex by default,
// or the lifecycle engine (internal/engine) or remote cluster
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
	// appender caches the backend's matchAppender side the same way:
	// an in-process backend that can append a matched set into the
	// evaluator's pooled buffer instead of allocating one. Batching
	// buys such a backend nothing, so EvaluateAll matches each rule on
	// the worker that regresses it.
	appender matchAppender
	// local is the backend when it is an evaluator-owned or shared
	// MatchIndex; Evaluate's scan fallback then fans out over workers.
	local *MatchIndex
	cache *ResultCache
	// sets holds matched sets whose evaluation is not cached — fetched
	// ahead by a speculative window (prefetch), or left by a child the
	// pruning gate dropped after a match that was a round trip — keyed
	// like the cache, so a generation that draws one of those
	// signatures needs no match query. Each maps to its bitmap in
	// setBits (see keepSet).
	sets    map[string]int32
	setBits bitmapSlab
	// memo holds the run loop's regression results by matched set (see
	// setMemo), and fs is the run loop's own fitScratch. Like sets,
	// only the execution that owns the evaluator touches them.
	memo setMemo
	fs   fitScratch
	// tame caches inputsTame's answer for one data epoch.
	tame      bool
	tameEpoch uint64
	tameKnown bool

	// Telemetry counters (nil handles no-op): full evaluations
	// performed, results served from the cache, and offspring dropped
	// before their regression (evaluate's skip).
	evalsComputed *obs.Counter
	evalsCached   *obs.Counter
	evalsPruned   *obs.Counter
	// evalsSetHits counts the cached results that came from the
	// matched-set memo (also counted in evalsCached).
	evalsSetHits *obs.Counter
}

// EvalOptions carries the optional shared machinery an Evaluator can
// be built around. All fields may be nil; the zero value reproduces a
// self-contained evaluator with its own index and private cache.
type EvalOptions struct {
	// Backend answers every match query: a MatchIndex shared by the
	// callers that evaluate one dataset many times (multi-run,
	// islands), the lifecycle engine or the remote cluster. Nil, or a
	// backend whose Data() is not the evaluator's dataset, makes the
	// evaluator build its own MatchIndex.
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
	e.appender, _ = e.backend.(matchAppender)
	e.local, _ = e.backend.(*MatchIndex)
	if e.cache == nil {
		e.cache = NewResultCache()
	}
	if opt.Telemetry != nil {
		e.evalsComputed = opt.Telemetry.Counter("core_evals_computed")
		e.evalsCached = opt.Telemetry.Counter("core_evals_cached")
		e.evalsPruned = opt.Telemetry.Counter("core_evals_pruned")
		e.evalsSetHits = opt.Telemetry.Counter("core_evals_set_hits")
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
func (e *Evaluator) MatchIndicesScan(r *Rule) []int { return appendScan(nil, e.data, r, e.workers) }

// appendScan appends the scan behind MatchIndicesScan to dst. It is
// also the fallback a MatchIndex takes where it cannot answer (NaN
// data or bounds).
func appendScan(dst []int, data *series.Dataset, r *Rule, workers int) []int {
	n := data.Len()
	// Parallelism pays only for large scans; the threshold keeps the
	// tiny datasets in unit tests on the fast serial path.
	if n < 4096 || parallel.Workers(workers) == 1 {
		for i := 0; i < n; i++ {
			if r.Match(data.Inputs[i]) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	return append(dst, parallel.Fold(n, workers,
		func() []int { return nil },
		func(acc []int, i int) []int {
			if r.Match(data.Inputs[i]) {
				acc = append(acc, i)
			}
			return acc
		},
		func(a, b []int) []int { return append(a, b...) })...)
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
func (e *Evaluator) Evaluate(ctx context.Context, r *Rule) { e.evaluate(ctx, r, nil) }

// evaluate is Evaluate with a veto between the match and the
// regression: on a cache miss, once the rule's matched set is known
// (and the query was neither cancelled nor faulted), a non-nil skip
// sees it and may stop the evaluation. A stopped rule is neither
// regressed nor cached, keeps its prior fields, and evaluate reports
// pruned. Where the match was a round trip (a BackendCtx backend, the
// cluster) its matched set is kept (keepSet), so the signature needs
// no match query when drawn again; a set kept by a speculative
// window's prefetch likewise replaces the query.
//
// A non-nil skip also marks the run loop's own path, which alone uses
// the evaluator's matched-set memo and fitScratch: a child that passes
// the veto with a set the memo has regressed takes that result instead
// of regressing again. The exported Evaluate (skip == nil) touches
// neither, so it stays safe for concurrent use.
//
// The matched set lives in the fitScratch for the whole evaluation:
// the index, the engine and a kept set append into its idx buffer, so
// a steady-state evaluation allocates no set. skip must not keep idx
// past its call.
func (e *Evaluator) evaluate(ctx context.Context, r *Rule, skip func(idx []int) bool) (pruned bool) {
	key := e.evalKey(r.Cond)
	if c := e.cache.Get(key); c != nil {
		c.apply(r)
		e.evalsCached.Inc()
		return false
	}
	fs := &e.fs
	if skip == nil {
		fs = fitScratchPool.Get().(*fitScratch)
		defer fitScratchPool.Put(fs)
	}
	set, kept := e.sets[key]
	idx, own := fs.idx[:0], true
	switch {
	case kept:
		idx = AppendSetBits(idx, e.setBits.at(int(set)))
	case e.local != nil:
		idx = e.local.appendMatches(idx, r, e.workers)
	case e.backendCtx != nil:
		idx, own = e.backendCtx.MatchIndicesCtx(ctx, r), false
	case e.appender != nil:
		idx = e.appender.AppendMatches(idx, r)
	default:
		idx, own = e.backend.MatchIndices(r), false
	}
	if own {
		// Keep the grown buffer. A set the backend allocated stays out
		// of the scratch: whoever handed it out may still hold it.
		fs.idx = idx
	}
	if ctx.Err() != nil || e.BackendErr() != nil {
		return false
	}
	if skip == nil {
		e.evalFromMatches(r, idx, fs)
		e.cache.Put(key, resultOf(r))
		e.evalsComputed.Inc()
		return false
	}
	if skip(idx) {
		if !kept && e.backendCtx != nil {
			e.keepSet(key, idx)
		}
		e.evalsPruned.Inc()
		return true
	}
	h, memo := uint64(0), setMemoHash != nil
	if memo {
		h = setMemoHash(idx)
		if c := e.memo.get(e.backend.Epoch(), h, idx); c != nil {
			c.apply(r)
			e.cache.Put(key, c)
			e.evalsCached.Inc()
			e.evalsSetHits.Inc()
			return false
		}
	}
	e.evalFromMatches(r, idx, fs)
	c := resultOf(r)
	e.cache.Put(key, c)
	if memo {
		e.memo.put(h, idx, (e.data.Len()+63)>>6, c)
	}
	e.evalsComputed.Inc()
	return false
}

// prefetch fetches the matched sets of a speculative window's rules in
// one MatchBatch (one cluster round trip) and keeps them. Rules whose
// result is cached or whose set is already kept, and repeated
// signatures, are not queried. A matched set is a pure function of its
// key, so a kept set serves whichever generation draws that signature.
// A batch cut short by cancellation or a backend fault keeps nothing;
// the real generation then meets the failure as before.
func (e *Evaluator) prefetch(ctx context.Context, rules []*Rule) {
	var work []*Rule
	var keys []string
	for _, r := range rules {
		k := e.evalKey(r.Cond)
		if _, kept := e.sets[k]; kept || slices.Contains(keys, k) || e.cache.Get(k) != nil {
			continue
		}
		work = append(work, r)
		keys = append(keys, k)
	}
	if len(work) == 0 {
		return
	}
	matched := e.backend.MatchBatch(ctx, work)
	if ctx.Err() != nil || e.BackendErr() != nil {
		return
	}
	for i, k := range keys {
		e.keepSet(k, matched[i])
	}
}

// setsWordLimit bounds the words the kept matched-set bitmaps hold
// (8 MB), and those of the matched-set memo apart. Reaching it drops
// them all, as the result cache does at its own bound: the sets a run
// still needs are fetched, or regressed, again.
const setsWordLimit = 1 << 20

// keepSet keeps a bitmap copy of idx as the matched set of a key not
// kept yet; evaluate expands it back into ascending indices on a hit.
// Only the execution that owns the evaluator calls it (prefetch and a
// pruned evaluate over a round-trip backend), never concurrently. A
// key carries the data epoch, so the row count a bitmap was sized by
// holds whenever it is read.
func (e *Evaluator) keepSet(key string, idx []int) {
	if words := (e.data.Len() + 63) >> 6; e.sets == nil || e.setBits.full(words) {
		if e.sets == nil {
			e.sets = make(map[string]int32)
		}
		clear(e.sets)
		e.setBits.reset(words)
	}
	e.sets[key] = e.setBits.add(idx)
}

// bitmapSlab holds matched sets as bitmaps of one width, ⌈n/64⌉ words
// each, packed into fixed blocks of slabBlockWords words. Blocks are
// allocated once and reused after each reset, and no bitmap is its
// own allocation; a slab grown by append would instead copy itself at
// every growth, five times its final size at Go's large-slice growth
// rate.
type bitmapSlab struct {
	words  int // words per bitmap
	n      int // bitmaps held
	blocks [][]uint64
}

// slabBlockWords is the size of one block of a bitmapSlab (64 KB).
const slabBlockWords = 1 << 13

// perBlock is the number of bitmaps one block holds.
func (b *bitmapSlab) perBlock() int { return max(1, slabBlockWords/max(1, b.words)) }

// full reports whether the slab must be reset before it takes a bitmap
// of words words: its width differs, or one more would pass
// setsWordLimit.
func (b *bitmapSlab) full(words int) bool {
	return words != b.words || (b.n+1)*words > setsWordLimit
}

// reset empties the slab for bitmaps of words words, keeping its
// blocks where the width stays.
func (b *bitmapSlab) reset(words int) {
	if words != b.words {
		b.blocks, b.words = nil, words
	}
	b.n = 0
}

// at returns bitmap i.
func (b *bitmapSlab) at(i int) []uint64 {
	per := b.perBlock()
	k := i % per * b.words
	return b.blocks[i/per][k : k+b.words]
}

// add stores the bitmap of the ascending indices idx and returns its
// number.
func (b *bitmapSlab) add(idx []int) int32 {
	i := b.n
	if per := b.perBlock(); i/per == len(b.blocks) {
		b.blocks = append(b.blocks, make([]uint64, per*b.words))
	}
	b.n++
	set := b.at(i)
	clear(set)
	for _, k := range idx {
		set[k>>6] |= 1 << (uint(k) & 63)
	}
	return int32(i)
}

// setMemo memoizes the run loop's regressions by matched set. A
// regression (evalFromMatches) is a function of the matched set alone
// — given the data at one epoch and the evaluator's EMAX, f_min and
// ridge — so two children with different genes but one matched set
// get the same consequent, error and fitness, bit for bit; a
// zero-match result leaves the rule's Prediction alone, and apply
// keeps that too. Entries are found by a hash of the matched set and
// served only after an exact check against the entry's bitmap
// (popcount and membership), so a hash collision can never serve
// another set's result. Entry i's bitmap is bitmap i of bits.
//
// The memo is dropped when the data epoch moves, and flushed when its
// bitmaps would pass setsWordLimit.
type setMemo struct {
	epoch   uint64
	heads   map[uint64]int32 // hash → newest entry with that hash
	entries []memoEntry
	bits    bitmapSlab
}

// memoEntry is one memoized regression: its matched set's size, the
// next older entry with the same hash (-1: none) and the result.
type memoEntry struct {
	m, next int32
	res     *EvalResult
}

// setMemoHash hashes a matched set for the memo: its size plus the sum
// of its indices, each mixed by a multiply and a shift. The terms are
// independent, so the loop is not one serial chain of multiplies, and
// a lookup's exact check makes any collision harmless. It is a test
// seam (export_test.go): a nil setMemoHash turns the memo off, and a
// constant one makes every set collide.
var setMemoHash = func(idx []int) uint64 {
	h := uint64(len(idx))
	for _, i := range idx {
		x := uint64(i) * 0x9e3779b97f4a7c15
		h += x ^ x>>29
	}
	return h
}

// get returns the memoized result of the matched set idx, whose hash
// is h, at data epoch ep, or nil. A moved epoch drops the memo.
func (s *setMemo) get(ep, h uint64, idx []int) *EvalResult {
	if ep != s.epoch {
		s.flush(s.bits.words)
		s.epoch = ep
	}
	for i, ok := s.heads[h]; ok && i >= 0; i = s.entries[i].next {
		if en := &s.entries[i]; int(en.m) == len(idx) && holdsAll(s.bits.at(int(i)), idx) {
			return en.res
		}
	}
	return nil
}

// holdsAll reports whether every index of idx is set in the bitmap.
// With equal counts, that makes the two sets equal.
func holdsAll(set []uint64, idx []int) bool {
	for _, k := range idx {
		if set[k>>6]&(1<<(uint(k)&63)) == 0 {
			return false
		}
	}
	return true
}

// put memoizes res as the regression of idx, whose hash is h, with
// bitmaps of words words, at the epoch of the get that missed it.
func (s *setMemo) put(h uint64, idx []int, words int, res *EvalResult) {
	if s.heads == nil || s.bits.full(words) {
		s.flush(words)
	}
	next, ok := s.heads[h]
	if !ok {
		next = -1
	}
	s.heads[h] = s.bits.add(idx)
	s.entries = append(s.entries, memoEntry{m: int32(len(idx)), next: next, res: res})
}

// flush empties the memo for bitmaps of words words, keeping its
// storage for reuse.
func (s *setMemo) flush(words int) {
	if s.heads == nil {
		s.heads = make(map[uint64]int32)
	}
	clear(s.heads)
	clear(s.entries) // release the results
	s.entries = s.entries[:0]
	s.bits.reset(words)
}

// inputsTame reports whether every training input is finite and at
// most 1e100 in magnitude — small enough that no normal equation can
// overflow — at the backend's current data epoch. It scans the data
// once per epoch.
func (e *Evaluator) inputsTame() bool {
	if ep := e.backend.Epoch(); !e.tameKnown || ep != e.tameEpoch {
		e.tame, e.tameEpoch, e.tameKnown = true, ep, true
	scan:
		for _, row := range e.data.Inputs {
			for _, v := range row {
				if !(math.Abs(v) <= 1e100) {
					e.tame = false
					break scan
				}
			}
		}
	}
	return e.tame
}

// fitScratch is the scratch one evaluation reuses across rules: the
// matched set, the xs/ys gather buffers and the linalg normal-equation
// storage. The run loop's evaluations use the evaluator's own; the
// concurrent Evaluate and EvaluateAll workers take one from a pool.
// Either way steady-state evaluation allocates only what escapes into
// results (the fresh LinearFit per rule).
type fitScratch struct {
	idx []int
	xs  [][]float64
	ys  []float64
	nf  linalg.FitScratch
}

var fitScratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

// evalFromMatches is the post-match half of an evaluation: given the
// rule's matched training indices, fit the consequent and assign the
// paper's fitness through the caller's scratch. Both Evaluate and
// EvaluateAll end here, which is what keeps them bit-identical.
// Nothing scratch-backed escapes into the rule: the LinearFit (and its
// Coef) assigned to r.Fit is freshly allocated by the fit itself.
func (e *Evaluator) evalFromMatches(r *Rule, idx []int, fs *fitScratch) {
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
		// Size the buffers for the whole dataset, which bounds every
		// matched set: growing them one larger set at a time would
		// reallocate them again and again as a run's sets grow.
		fs.xs = make([][]float64, e.data.Len())
		fs.ys = make([]float64, e.data.Len())
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
	// matches) from the same per-row prediction, four rows at a time.
	maxAbs, sum := fit.ResidualPass(xs, ys)
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
// off, and the surviving unique rules are matched and regressed in
// parallel across rules. An in-process backend (a MatchIndex or the
// engine, which append matched sets into the caller's buffer) gains
// nothing from batching, so each worker matches its rule just before
// regressing it. Any other backend answers the rules in one
// Backend.MatchBatch call (one cluster round trip) before the
// regressions start. Results are bit-identical to calling Evaluate on
// each rule in order, so scheduling cannot change outcomes.
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
		if e.appender == nil {
			matched = e.backend.MatchBatch(ctx, work)
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
			fs := fitScratchPool.Get().(*fitScratch)
			defer fitScratchPool.Put(fs)
			var idx []int
			if e.appender != nil {
				fs.idx = e.appender.AppendMatches(fs.idx[:0], work[i])
				idx = fs.idx
			} else {
				idx = matched[i]
			}
			e.evalFromMatches(work[i], idx, fs)
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
