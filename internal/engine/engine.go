package engine

import (
	"math"

	"repro/internal/core"
	"repro/internal/series"
)

// Options configures an Engine.
type Options struct {
	// Shards is the number of dataset partitions (0 = GOMAXPROCS,
	// clamped to the dataset size). 1 degenerates to the sequential
	// single-index layout — still exact, just without fan-out. The
	// count is fixed for the engine's lifetime.
	Shards int
	// Workers bounds the goroutines used to fan queries out across
	// shards and rules (0 = GOMAXPROCS).
	Workers int
	// CacheCapacity bounds each generation of the shared result cache
	// (0 = DefaultCacheCapacity).
	CacheCapacity int
	// CompactThreshold is the per-shard dead-row ratio beyond which
	// Delete/Window compact that shard automatically. 0 means
	// DefaultCompactThreshold; negative (or NaN) disables automatic
	// compaction — explicit Compact() always works; values above 1 are
	// clamped to 1 (compact only fully-dead shards).
	CompactThreshold float64
}

// Clamped returns a copy of the options with every field normalized
// to its documented domain — the single place out-of-range values are
// handled, so constructors and flag parsing never re-derive the
// rules: negative Shards/Workers/CacheCapacity mean "use the default"
// and become 0; CompactThreshold maps 0 to DefaultCompactThreshold,
// NaN and negatives to -1 (disabled), and clamps to at most 1.
func (o Options) Clamped() Options {
	if o.Shards < 0 {
		o.Shards = 0
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.CacheCapacity < 0 {
		o.CacheCapacity = 0
	}
	switch {
	case o.CompactThreshold == 0:
		o.CompactThreshold = DefaultCompactThreshold
	case math.IsNaN(o.CompactThreshold) || o.CompactThreshold < 0:
		o.CompactThreshold = -1
	case o.CompactThreshold > 1:
		o.CompactThreshold = 1
	}
	return o
}

// Engine is the sharded, batched evaluation backend plus its shared
// result cache. It implements core.Store (the lifecycle-managed
// superset of core.Backend); Configure wires both into a core.Config
// in one call. One Engine serves every consumer over its dataset —
// evaluators, multi-run waves, islands, the Pittsburgh baseline —
// concurrently.
type Engine struct {
	*Shards
	cache *SharedCache
}

// New builds an engine over the training dataset: the dataset is
// partitioned into opt.Shards shards with one MatchIndex each, and a
// fresh shared cache is attached. The engine owns the dataset's
// lifecycle from here on: streaming appends, deletes, windows and
// compaction must go through the Engine methods.
func New(data *series.Dataset, opt Options) *Engine {
	opt = opt.Clamped()
	return &Engine{
		Shards: NewShardsOpt(data, opt),
		cache:  NewSharedCache(opt.CacheCapacity),
	}
}

// Cache returns the engine's shared result cache.
func (e *Engine) Cache() *SharedCache { return e.cache }

// Configure wires the engine into a core.Config: match queries go
// through the shards (Backend) and results are memoized in the shared
// cache (Cache). Purely a speed knob — results are bit-identical to
// the default single-index backend.
//
// Pending tombstones are compacted away first. Match paths skip dead
// rows on their own, but training pipelines also consume Data()
// directly — rule-initialization bounds, coverage counts — and that
// view holds tombstoned rows until compaction. Compacting here
// guarantees every consumer of a configured engine sees exactly the
// live rows, whether or not the caller remembered an explicit
// Compact(); it is a no-op when nothing is tombstoned.
func (e *Engine) Configure(cfg *core.Config) {
	e.Compact()
	cfg.Runtime.Backend = e
	cfg.Runtime.Cache = e.cache
}

// Append adds streaming patterns: the shard layer routes them to the
// shard with the fewest live rows and rebuilds only that shard's
// index, and the shared cache is invalidated — its epoch-prefixed
// keys have already expired every pre-append result, so this only
// releases their memory. Like every mutation, it must not run
// concurrently with evaluation.
func (e *Engine) Append(inputs [][]float64, targets []float64) error {
	return e.AppendRows(inputs, targets, nil)
}

// AppendRows is Append with caller-chosen stable ids (see
// Shards.AppendRows) — the hook the remote shard server uses to adopt
// globally assigned RowIDs.
func (e *Engine) AppendRows(inputs [][]float64, targets []float64, ids []series.RowID) error {
	if err := e.Shards.AppendRows(inputs, targets, ids); err != nil {
		return err
	}
	e.cache.Invalidate()
	return nil
}

// Delete tombstones the rows with the given stable ids (matched sets
// exclude them immediately) and invalidates the shared cache. Returns
// the number of rows that were live.
func (e *Engine) Delete(ids []series.RowID) int {
	n := e.Shards.Delete(ids)
	if n > 0 {
		e.cache.Invalidate()
	}
	return n
}

// Window keeps only the newest n live rows — the sliding-window
// primitive — and invalidates the shared cache when anything was
// evicted. Returns the number of rows evicted.
func (e *Engine) Window(n int) int {
	evicted := e.Shards.Window(n)
	if evicted > 0 {
		e.cache.Invalidate()
	}
	return evicted
}

// Compact physically reclaims every tombstoned row (Data() shrinks to
// the live rows in place) and invalidates the shared cache when
// anything moved. Returns the number of rows reclaimed.
func (e *Engine) Compact() int {
	removed := e.Shards.Compact()
	if removed > 0 {
		e.cache.Invalidate()
	}
	return removed
}

// Engine must satisfy the full lifecycle-store contract.
var _ core.Store = (*Engine)(nil)
