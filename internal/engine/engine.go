package engine

import (
	"math"

	"repro/internal/core"
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
// rules: negative Shards/Workers mean "use the default"
// and become 0; CompactThreshold maps 0 to DefaultCompactThreshold,
// NaN and negatives to -1 (disabled), and clamps to at most 1.
func (o Options) Clamped() Options {
	if o.Shards < 0 {
		o.Shards = 0
	}
	if o.Workers < 0 {
		o.Workers = 0
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

// SharedCache is core's evaluation-result cache under the name the
// end-to-end benchmark (perfbench) imports. Every evaluator keeps its
// own; nothing in the engine shares or touches one.
type SharedCache = core.ResultCache

// NewSharedCache returns an empty core.ResultCache, kept for
// perfbench; the capacity argument is ignored (the cache has one
// fixed bound).
func NewSharedCache(int) *SharedCache { return core.NewResultCache() }

// Cache returns a cache the engine holds but never reads or writes,
// kept for perfbench, which shares it across its executions through
// core.Runtime.Cache. Fits through the facade do not use it.
func (s *Engine) Cache() *SharedCache { return s.cache }

// Configure wires the engine into a core.Config as its match backend.
// Purely a speed knob — results are bit-identical to the default
// single-index backend.
//
// Pending tombstones are compacted away first. Match paths skip dead
// rows on their own, but training pipelines also consume Data()
// directly — rule-initialization bounds, coverage counts — and that
// view holds tombstoned rows until compaction. Compacting here
// guarantees every consumer of a configured engine sees exactly the
// live rows, whether or not the caller remembered an explicit
// Compact(); it is a no-op when nothing is tombstoned.
func (s *Engine) Configure(cfg *core.Config) {
	s.Compact()
	cfg.Runtime.Backend = s
}

// Engine must satisfy the full lifecycle-store contract.
var _ core.Store = (*Engine)(nil)
