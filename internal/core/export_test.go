package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/series"
)

// CheckPruned installs fn as the pruning gate's test seam until
// restore is called: every offspring the gate would drop is handed to
// fn with its replacement slot (-1 unless ReplaceRandom) and matched
// set, and is dropped only if fn returns true. fn gets a copy of the
// set: the evaluator's own lives in pooled scratch.
func CheckPruned(fn func(ex *Execution, child *Rule, target int, idx []int) bool) (restore func()) {
	checkPruned = func(ex *Execution, child *Rule, target int, idx []int) bool {
		return fn(ex, child, target, slices.Clone(idx))
	}
	return func() { checkPruned = nil }
}

// Regress runs the post-match half of an evaluation — the consequent
// regression and fitness — on r over the matched set idx.
func (e *Evaluator) Regress(r *Rule, idx []int) {
	fs := fitScratchPool.Get().(*fitScratch)
	e.evalFromMatches(r, idx, fs)
	fitScratchPool.Put(fs)
}

// NearestIndex is the crowding target of cand under the distance kind.
func NearestIndex(pop []*Rule, cand *Rule, kind DistanceKind, predSpan float64) int {
	return nearestIndex(pop, cand, kind, predSpan)
}

// CacheLen returns the number of entries resident in c.
func CacheLen(c *ResultCache) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// CtxIndex is a MatchIndex that also implements BackendCtx, as a
// networked backend does, so in-process tests run the speculative
// window. Singles counts its single-rule queries.
type CtxIndex struct {
	*MatchIndex
	Singles atomic.Int64
}

// NewCtxIndex builds a CtxIndex over ds.
func NewCtxIndex(ds *series.Dataset) *CtxIndex { return &CtxIndex{MatchIndex: NewMatchIndex(ds)} }

// MatchIndicesCtx answers like MatchIndices.
func (c *CtxIndex) MatchIndicesCtx(_ context.Context, r *Rule) []int {
	c.Singles.Add(1)
	return c.MatchIndices(r)
}

// referenceMatchIndex builds the rank index the straightforward way:
// every lag's (value, index) order from its own comparison sort. The
// property and fuzz tests hold NewMatchIndex's derived orders to it.
func referenceMatchIndex(data *series.Dataset) *MatchIndex {
	n, d := data.Len(), data.D
	ix := &MatchIndex{data: data, n: n, words: (n + 63) >> 6, step: max(8, n/64)}
	for _, row := range data.Inputs {
		for _, v := range row {
			if math.IsNaN(v) {
				ix.degenerate = true
				return ix
			}
		}
	}
	ix.buckets = (n + ix.step - 1) / ix.step
	ix.vals = make([]float64, d*n)
	ix.perm = make([]int32, d*n)
	ix.pre = make([]uint64, d*(ix.buckets+1)*ix.words)
	ranked := make([]rankedValue, n)
	for j := 0; j < d; j++ {
		for i, row := range data.Inputs {
			ranked[i] = rankedValue{row[j], int32(i)}
		}
		slices.SortFunc(ranked, func(a, b rankedValue) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return int(a.i - b.i)
		})
		vals, perm := ix.vals[j*n:(j+1)*n], ix.perm[j*n:(j+1)*n]
		for k, rv := range ranked {
			vals[k], perm[k] = rv.v, rv.i
		}
		for b := 1; b <= ix.buckets; b++ {
			cur := ix.bucket(j, b)
			copy(cur, ix.bucket(j, b-1))
			setRows(cur, perm[(b-1)*ix.step:min(b*ix.step, n)])
		}
	}
	return ix
}

// diffIndex reports the first way got differs from want: shape,
// degeneracy, rank order, bitmaps, or a sorted value's bits.
func diffIndex(got, want *MatchIndex) error {
	if got.n != want.n || got.words != want.words || got.step != want.step || got.buckets != want.buckets {
		return fmt.Errorf("shape n/words/step/buckets %d/%d/%d/%d, want %d/%d/%d/%d",
			got.n, got.words, got.step, got.buckets, want.n, want.words, want.step, want.buckets)
	}
	if got.degenerate != want.degenerate {
		return fmt.Errorf("degenerate %v, want %v", got.degenerate, want.degenerate)
	}
	if k := firstDiff(got.perm, want.perm); k >= 0 {
		return fmt.Errorf("perm[%d] (lag %d) = %d, want %d", k, k/max(got.n, 1), got.perm[k], want.perm[k])
	}
	if k := firstDiff(got.pre, want.pre); k >= 0 {
		return fmt.Errorf("pre word %d = %#x, want %#x", k, got.pre[k], want.pre[k])
	}
	if len(got.vals) != len(want.vals) {
		return fmt.Errorf("%d values, want %d", len(got.vals), len(want.vals))
	}
	for k := range got.vals {
		if math.Float64bits(got.vals[k]) != math.Float64bits(want.vals[k]) {
			return fmt.Errorf("vals[%d] = %v, want %v", k, got.vals[k], want.vals[k])
		}
	}
	return nil
}

// firstDiff is the first position where a and b differ (a length
// mismatch counts at the shorter length), or -1.
func firstDiff[T comparable](a, b []T) int {
	for k := range min(len(a), len(b)) {
		if a[k] != b[k] {
			return k
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// SetMemoHash installs h as the matched-set memo's hash until restore
// is called: a constant h makes every matched set collide, and a nil h
// turns the memo off.
func SetMemoHash(h func(idx []int) uint64) (restore func()) {
	saved := setMemoHash
	setMemoHash = h
	return func() { setMemoHash = saved }
}

// EvaluateInLoop evaluates r as the run loop does, through the
// matched-set memo and the evaluator's own scratch, with a veto that
// never prunes.
func (e *Evaluator) EvaluateInLoop(ctx context.Context, r *Rule) {
	e.evaluate(ctx, r, func([]int) bool { return false })
}
