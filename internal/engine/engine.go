// Package engine is the lifecycle-managed evaluation store of the rule
// system: the training dataset, one core.MatchIndex over it, and the
// dataset's full lifecycle under streaming data — appends, deletes and
// sliding windows that evict rows physically — with a data epoch that
// expires every cached evaluation a mutation invalidates.
//
// The engine implements core.Store (and therefore core.Backend). It
// answers only the match side — all regression and fitness math stays
// in core, with each evaluator's own result cache — so every
// append/delete/window history is bit-identical to a from-scratch
// MatchIndex over the same rows. A remote shard server
// (internal/remote) owns one Engine over its slice of a cluster's data.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/series"
)

// Options configures an Engine.
type Options struct {
	// Shards is ignored: the engine keeps one index over all its rows.
	//
	// Deprecated: ignored; kept for perfbench.
	Shards int
}

// Engine is the training dataset and one MatchIndex over it.
//
// A mutation (Append, Delete, Window) changes the rows under the write
// lock and discards the index; the first match query after it builds a
// new one over the current rows, and every later query until the next
// mutation reuses it. A burst of mutations — a stream round's Append
// then Window — therefore costs one build, not one per mutation.
//
// Rows leave physically: Delete and Window shrink the dataset in place,
// so Data() always holds exactly the rows match queries range over.
// Rows are named across these renumberings by their stable
// series.RowID, assigned in insertion order; the dataset always keeps
// rows in insertion order, which is what makes engine evaluations
// bit-identical to a from-scratch build over the same rows
// (floating-point accumulation order is part of the contract).
//
// Match queries are safe for concurrent use with each other;
// mutations exclude queries via the RWMutex but mutate the shared
// dataset in place — callers must not mutate concurrently with code
// reading the dataset outside the engine (streaming loops alternate
// evolve and mutate phases).
//
// Setting core.Runtime.Backend to an Engine wires it into a fit. One
// Engine serves every consumer over its dataset — evaluators,
// multi-run waves, islands — concurrently.
type Engine struct {
	mu     sync.RWMutex
	data   *series.Dataset         // guarded by mu: Append grows it, Delete and Window shrink it
	index  func() *core.MatchIndex // guarded by mu: builds the index over data once; reset by every mutation
	nextID series.RowID            // guarded by mu: next RowID to assign on Append
	epoch  atomic.Uint64
	tel    *telemetry // set by Instrument before the engine is shared; nil = disabled

	cache *SharedCache // returned by Cache; never read or written by the engine
}

// New builds an engine over the training dataset. The index is built
// by the first match query. The engine owns the dataset's lifecycle
// from here on: streaming appends, deletes and windows must go through
// the Engine methods. opt is ignored.
func New(data *series.Dataset, opt Options) *Engine {
	s := &Engine{data: data, cache: NewSharedCache(0)}
	// Stable row identity: adopt the dataset's ids when it already has
	// ascending ones (a store handing data across engines), otherwise
	// number rows by position.
	if data.HasAscendingIDs() {
		s.nextID = data.IDs[data.Len()-1] + 1
	} else {
		s.nextID = data.AssignIDs(0)
	}
	s.resetLocked()
	return s
}

// resetLocked discards the index: the next query builds one over the
// rows as they are then. Callers hold mu for writing (or own s
// exclusively).
func (s *Engine) resetLocked() {
	data := s.data
	s.index = sync.OnceValue(func() *core.MatchIndex { return core.NewMatchIndex(data) })
}

// P returns 1: the engine is one partition. It stays for
// forecast.StoreStats, which reports a cluster's server count there.
func (s *Engine) P() int { return 1 }

// LiveLen returns the number of training patterns: the rows match
// queries range over, and Data().Len().
func (s *Engine) LiveLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data.Len()
}

// LiveSpread returns (LiveLen(), LiveLen()): the smallest and largest
// partition of a one-partition store.
func (s *Engine) LiveSpread() (lo, hi int) {
	n := s.LiveLen()
	return n, n
}

// Data returns the training dataset. It is the pointer the engine was
// built over; mutations grow and shrink it in place, so evaluators
// keyed on it stay wired across the dataset's whole lifecycle.
func (s *Engine) Data() *series.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data
}

// Epoch returns the data epoch: the number of mutations (appends,
// deletes, windows) that changed the store. Evaluation-cache keys
// embed it, expiring every result computed against an older snapshot.
func (s *Engine) Epoch() uint64 { return s.epoch.Load() }

// Append adds streaming patterns at the tail of the dataset; each new
// row receives the next ascending RowID. Returns an error when a
// pattern's width does not match the dataset's D or inputs and targets
// disagree in length.
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
	s.resetLocked()
	s.epoch.Add(1)
	return nil
}

// MatchIndices returns the rule's matched pattern indices, ascending:
// AppendMatches(nil, r), nil when none match.
func (s *Engine) MatchIndices(r *core.Rule) []int { return s.AppendMatches(nil, r) }

// AppendMatches appends the rule's matched pattern indices to dst,
// ascending, and returns the extended slice; dst grows at most once.
func (s *Engine) AppendMatches(dst []int, r *core.Rule) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index().AppendMatches(dst, r)
}

// matchBatch is the MatchBatch implementation; the exported wrapper
// (telemetry.go) adds the optional latency/size instrumentation.
func (s *Engine) matchBatch(ctx context.Context, rules []*core.Rule) [][]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index().MatchBatch(ctx, rules)
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
