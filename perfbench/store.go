package main

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// trainingStore is what a fit trains against: the in-process engine or
// the remote cluster, each with its client-side shared result cache.
type trainingStore interface {
	core.Store
	Cache() *engine.SharedCache
}

// matchCall is one timed match query.
type matchCall struct {
	d     time.Duration
	rows  int // matched rows (summed over the rules of a batch)
	rules int
}

// timedStore is the benchmark's timing span around a training store.
// It implements core.Store (plus the optional BackendCtx and
// BackendHealth sides, forwarded to the store when it has them), times
// every match query and store mutation, and keeps every matched set it
// hands out so the fit's regressions can be replayed afterwards.
type timedStore struct {
	core.Store

	mu     sync.Mutex
	single []matchCall // one-rule queries: one per uncached offspring
	batch  []matchCall // batch queries: population initialisation
	sets   [][]int     // every matched set, in the order handed out
	bySig  map[string][]int
	verbs  map[string][]time.Duration // append, window, compact
}

func newTimedStore(st core.Store) *timedStore {
	return &timedStore{Store: st, bySig: map[string][]int{}, verbs: map[string][]time.Duration{}}
}

// reset drops the recorded calls and sets (after a fit was replayed).
func (t *timedStore) reset() {
	t.single, t.batch, t.sets = nil, nil, nil
	t.bySig = map[string][]int{}
}

func (t *timedStore) MatchIndices(r *core.Rule) []int {
	start := time.Now()
	out := t.Store.MatchIndices(r)
	t.recordSingle(time.Since(start), r, out)
	return out
}

func (t *timedStore) MatchIndicesCtx(ctx context.Context, r *core.Rule) []int {
	c, ok := t.Store.(core.BackendCtx)
	if !ok {
		return t.MatchIndices(r)
	}
	start := time.Now()
	out := c.MatchIndicesCtx(ctx, r)
	t.recordSingle(time.Since(start), r, out)
	return out
}

func (t *timedStore) MatchBatch(ctx context.Context, rules []*core.Rule) [][]int {
	start := time.Now()
	out := t.Store.MatchBatch(ctx, rules)
	d := time.Since(start)
	epoch := t.Epoch()
	t.mu.Lock()
	defer t.mu.Unlock()
	rows := 0
	for i, r := range rules {
		rows += len(out[i])
		t.keep(epoch, r, out[i])
	}
	t.batch = append(t.batch, matchCall{d: d, rows: rows, rules: len(rules)})
	return out
}

func (t *timedStore) recordSingle(d time.Duration, r *core.Rule, out []int) {
	epoch := t.Epoch()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.single = append(t.single, matchCall{d: d, rows: len(out), rules: 1})
	t.keep(epoch, r, out)
}

// keep records a matched set under the rule's signature. Callers hold mu.
func (t *timedStore) keep(epoch uint64, r *core.Rule, out []int) {
	t.sets = append(t.sets, out)
	t.bySig[signature(epoch, r.Cond)] = out
}

// BackendErr forwards the store's sticky fault (core.BackendHealth).
func (t *timedStore) BackendErr() error {
	if h, ok := t.Store.(core.BackendHealth); ok {
		return h.BackendErr()
	}
	return nil
}

func (t *timedStore) Append(inputs [][]float64, targets []float64) error {
	start := time.Now()
	err := t.Store.Append(inputs, targets)
	t.verbs["append"] = append(t.verbs["append"], time.Since(start))
	return err
}

func (t *timedStore) Window(n int) int {
	start := time.Now()
	k := t.Store.Window(n)
	t.verbs["window"] = append(t.verbs["window"], time.Since(start))
	return k
}

func (t *timedStore) Compact() int {
	start := time.Now()
	k := t.Store.Compact()
	t.verbs["compact"] = append(t.verbs["compact"], time.Since(start))
	return k
}

// replayStore answers match queries from the sets a timedStore
// recorded, at the cost of a map lookup, so re-running the same fit
// against it times everything in a generation except matching.
type replayStore struct {
	core.Store
	bySig  map[string][]int
	misses int // queries with no recorded set, answered by the store
	mu     sync.Mutex
}

func (p *replayStore) MatchIndices(r *core.Rule) []int {
	if out, ok := p.lookup(r); ok {
		return out
	}
	return p.Store.MatchIndices(r)
}

func (p *replayStore) MatchBatch(ctx context.Context, rules []*core.Rule) [][]int {
	out := make([][]int, len(rules))
	for i, r := range rules {
		if s, ok := p.lookup(r); ok {
			out[i] = s
		} else {
			out[i] = p.Store.MatchIndices(r)
		}
	}
	return out
}

func (p *replayStore) lookup(r *core.Rule) ([]int, bool) {
	out, ok := p.bySig[signature(p.Epoch(), r.Cond)]
	if !ok {
		p.mu.Lock()
		p.misses++
		p.mu.Unlock()
	}
	return out, ok
}

// signature is a byte-exact key for a conditional part at a data epoch.
func signature(epoch uint64, cond []core.Interval) string {
	b := make([]byte, 8, 8+17*len(cond))
	binary.LittleEndian.PutUint64(b, epoch)
	for _, iv := range cond {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(iv.Lo))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(iv.Hi))
		if iv.Wildcard {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return string(b)
}
