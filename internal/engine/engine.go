package engine

import "repro/internal/core"

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
}

// Clamped returns a copy of the options with every field normalized
// to its documented domain — the single place out-of-range values are
// handled, so constructors and flag parsing never re-derive the
// rules: negative Shards/Workers mean "use the default" and become 0.
func (o Options) Clamped() Options {
	if o.Shards < 0 {
		o.Shards = 0
	}
	if o.Workers < 0 {
		o.Workers = 0
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

// Engine must satisfy the full lifecycle-store contract.
var _ core.Store = (*Engine)(nil)
