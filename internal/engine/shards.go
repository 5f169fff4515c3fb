// Package engine is the sharded, batched evaluation backend of the
// rule system. It partitions the training dataset across P shards,
// each with its own core.MatchIndex, whose per-shard results merge by
// their ascending runs into the caller's buffer (AppendMatches) or a
// fresh result; serves whole generations of offspring through one
// pass that walks the shards on goroutines (MatchBatch); and manages
// the dataset's full lifecycle under streaming data — incremental
// appends, deletes and sliding windows that rewrite only the shards
// they touch — instead of rebuilding from scratch.
//
// The engine implements core.Store (and therefore core.Backend). It
// accelerates only the match side — all regression and fitness math
// stays in core, with each evaluator's own result cache — so every
// configuration (any shard count, any parallelism, any
// append/delete/window history) is bit-identical to the sequential
// single-index path over the same rows.
package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/series"
)

// Engine is the training dataset partitioned across P shards, each
// carrying its own slice of patterns and its own MatchIndex. The
// initial build partitions contiguously; streaming appends route new
// patterns to the shard with the fewest rows (rebuilding only that
// shard's index), so after appends a shard owns an ascending but
// not necessarily contiguous set of global pattern indices. Queries
// merge the per-shard results by their ascending global runs, which
// restores ascending order regardless of layout.
//
// Rows leave physically: Delete and Window rewrite the shards holding
// the evicted rows (rebuilding only their indexes) and shrink the
// global dataset view in place, so Data() always holds exactly the
// rows match queries range over. Rows are named across these
// renumberings by their stable series.RowID, assigned in insertion
// order; the global view always keeps rows in insertion order, which
// is what makes engine evaluations bit-identical to a from-scratch
// build over the same rows (floating-point accumulation order is part
// of the contract).
//
// Match queries are safe for concurrent use with each other;
// mutations (Append, Delete, Window) exclude queries via the RWMutex
// but mutate the shared dataset in place — callers must not mutate
// concurrently with code reading the dataset outside the engine
// (streaming loops alternate evolve and mutate phases).
//
// Engine implements core.Store (the lifecycle-managed superset of
// core.Backend); setting core.Runtime.Backend to it wires it into a
// fit. One Engine serves every consumer over its dataset —
// evaluators, multi-run waves, islands — concurrently.
type Engine struct {
	mu      sync.RWMutex
	data    *series.Dataset // guarded by mu: the full dataset view; Append grows it, Delete and Window shrink it
	parts   []*shard        // guarded by mu
	workers int             // fixed at construction
	epoch   atomic.Uint64
	tel     *telemetry // set by Instrument before the shards are shared; nil = disabled

	nextID series.RowID // guarded by mu: next RowID to assign on Append

	cache *SharedCache // returned by Cache; never read or written by the engine
}

// shard is one partition: a shard-local dataset whose rows alias the
// full dataset's rows (read-only), the ascending global index of each
// local pattern, and the shard's own match index over its local data.
type shard struct {
	global []int32         // global[i]: full-dataset index of local pattern i
	data   *series.Dataset // local view; Inputs/Targets own their headers
	idx    *core.MatchIndex
}

// New builds an engine over the training dataset: the dataset is
// partitioned into opt.Shards shards (0 → GOMAXPROCS, clamped to the
// dataset size so no shard is empty) with one MatchIndex each. The
// engine owns the dataset's lifecycle from here on: streaming
// appends, deletes and windows must go through the Engine methods.
// Options are clamped in one place; see Options.Clamped.
func New(data *series.Dataset, opt Options) *Engine {
	opt = opt.Clamped()
	n := data.Len()
	p := opt.Shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	s := &Engine{
		data:    data,
		workers: opt.Workers,
		cache:   NewSharedCache(0),
	}
	// Stable row identity: adopt the dataset's ids when it already has
	// ascending ones (a store handing data across engines), otherwise
	// number rows by position.
	if data.HasAscendingIDs() {
		s.nextID = data.IDs[n-1] + 1
	} else {
		s.nextID = data.AssignIDs(0)
	}
	s.parts = make([]*shard, p)
	// Contiguous blocks, remainder spread over the first shards: the
	// same layout a from-scratch rebuild would produce.
	base, rem := n/p, n%p
	parallel.For(p, opt.Workers, func(i int) {
		size := base
		if i < rem {
			size++
		}
		start := i*base + min(i, rem)
		sh := &shard{
			global: make([]int32, size),
			data: &series.Dataset{
				Inputs:  make([][]float64, size),
				Targets: make([]float64, size),
				D:       data.D,
				Horizon: data.Horizon,
			},
		}
		for k := 0; k < size; k++ {
			g := start + k
			sh.global[k] = int32(g)
			sh.data.Inputs[k] = data.Inputs[g]
			sh.data.Targets[k] = data.Targets[g]
		}
		sh.idx = core.NewMatchIndex(sh.data)
		s.parts[i] = sh
	})
	return s
}

// P returns the number of shards: the configured count, clamped to the
// initial dataset size. It never changes afterwards; a shard a window
// empties stays in place until an append refills it.
func (s *Engine) P() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.parts)
}

// LiveLen returns the number of training patterns: the rows match
// queries range over, and Data().Len().
func (s *Engine) LiveLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.Len()
}

// Data returns the full training dataset the shards partition. It is
// the pointer the engine was built over; mutations grow and shrink it
// in place, so evaluators keyed on it stay wired across the dataset's
// whole lifecycle.
func (s *Engine) Data() *series.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data
}

// Epoch returns the data epoch: the number of mutations (appends,
// deletes, windows) that changed the store. Evaluation-cache keys
// embed it, expiring every result computed against an older snapshot.
func (s *Engine) Epoch() uint64 { return s.epoch.Load() }

// LiveSpread returns the smallest and largest shard sizes — how
// evenly append routing and windowing have left the layout.
func (s *Engine) LiveSpread() (lo, hi int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo = -1
	for _, sh := range s.parts {
		l := sh.data.Len()
		if lo < 0 || l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// Append adds streaming patterns to the dataset and maintains the
// shard indexes incrementally: all new patterns are routed to the
// shard currently holding the fewest rows (lowest index on ties, so
// the layout is deterministic) and only that shard's index is rebuilt:
// over windowed rows, one O(n_s log n_s) sort of the first lag and an
// O(n_s) merge per further lag (core.NewMatchIndex), instead of
// rebuilding every shard over all n rows. The global
// dataset view grows in place and each new row receives the next
// ascending RowID. Routing by size also refills a shard a window
// emptied. Returns an error when a pattern's width does not
// match the dataset's D or inputs and targets disagree in length.
func (s *Engine) Append(inputs [][]float64, targets []float64) error {
	return s.AppendRows(inputs, targets, nil)
}

// appendRows is the AppendRows implementation; the exported wrapper
// (telemetry.go) adds the optional timing instrumentation.
func (s *Engine) appendRows(inputs [][]float64, targets []float64, ids []series.RowID) error {
	if len(inputs) != len(targets) {
		return fmt.Errorf("engine: Append with %d inputs but %d targets", len(inputs), len(targets))
	}
	if ids != nil && len(ids) != len(inputs) {
		return fmt.Errorf("engine: AppendRows with %d inputs but %d ids", len(inputs), len(ids))
	}
	for i, row := range inputs {
		if len(row) != s.data.D {
			return fmt.Errorf("engine: Append pattern %d has width %d, want D=%d", i, len(row), s.data.D)
		}
	}
	if len(inputs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	if ids != nil {
		prev := s.nextID - 1
		for i, id := range ids {
			if id <= prev {
				return fmt.Errorf("engine: AppendRows id %d at %d is not ascending past %d", id, i, prev)
			}
			prev = id
		}
	}

	base := s.data.Len()
	s.data.Inputs = append(s.data.Inputs, inputs...)
	s.data.Targets = append(s.data.Targets, targets...)
	if ids != nil {
		s.data.IDs = append(s.data.IDs, ids...)
		s.nextID = ids[len(ids)-1] + 1
	} else {
		for range inputs {
			s.data.IDs = append(s.data.IDs, s.nextID)
			s.nextID++
		}
	}

	// Route the whole chunk to the shard with the fewest rows:
	// one index rebuild per Append, and shard sizes stay balanced
	// across a stream of chunks.
	sm := 0
	for i, sh := range s.parts {
		if sh.data.Len() < s.parts[sm].data.Len() {
			sm = i
		}
	}
	sh := s.parts[sm]
	for k := range inputs {
		g := base + k
		sh.global = append(sh.global, int32(g))
		sh.data.Inputs = append(sh.data.Inputs, s.data.Inputs[g])
		sh.data.Targets = append(sh.data.Targets, s.data.Targets[g])
	}
	sh.idx = core.NewMatchIndex(sh.data)

	s.epoch.Add(1)
	return nil
}

// MatchIndices returns the rule's matched pattern indices over the
// full dataset, ascending — exactly what the sequential single-index
// path over the same rows returns: AppendMatches(nil, r), a fresh
// result of exactly the matched set's size, nil when none match.
func (s *Engine) MatchIndices(r *core.Rule) []int { return s.AppendMatches(nil, r) }

// AppendMatches appends the rule's matched pattern indices over the
// full dataset to dst, ascending, and returns the extended slice; dst
// grows at most once. The shards are walked in a plain loop on the
// calling goroutine (one rule's lookup costs less than a goroutine
// hand-off), each appending its shard-local hits into a pooled arena,
// and the merge writes their global indices straight into dst.
func (s *Engine) AppendMatches(dst []int, r *core.Rule) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := shardPassPool.Get().(*shardPass)
	arena, segs := p.arena[:0], p.views[:0]
	for _, sh := range s.parts {
		start := len(arena)
		arena = sh.matchInto(arena, r, &p.sc)
		segs = append(segs, arena[start:len(arena):len(arena)])
	}
	if len(arena) > 0 {
		dst = s.mergeLocked(slices.Grow(dst, len(arena)), segs)
	}
	p.arena, p.views = arena, segs
	shardPassPool.Put(p)
	return dst
}

// matchInto appends the shard-local matched set of r to dst: an
// index lookup, or — only for NaN-degenerate data or NaN gene bounds —
// a scan of the shard.
func (sh *shard) matchInto(dst []int, r *core.Rule, sc *core.MatchScratch) []int {
	out, ok := sh.idx.LookupInto(dst, r, sc)
	if !ok {
		return sh.scanInto(dst, r)
	}
	return out
}

// scanInto is the shard-local reference path (the shards already
// provide the parallelism, so it stays serial), appending to dst.
func (sh *shard) scanInto(dst []int, r *core.Rule) []int {
	for i, row := range sh.data.Inputs {
		if r.Match(row) {
			dst = append(dst, i)
		}
	}
	return dst
}
