package core

import (
	"context"
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
