package engine

import (
	"sort"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/series"
)

// This file is the eviction side of the lifecycle-managed store:
// Delete and Window remove rows physically in the call that names
// them. Eviction never moves a row between shards or reorders the
// rows it keeps, so matched-set order — and with it the
// floating-point accumulation order of every regression — is exactly
// that of a from-scratch build over the remaining rows.

// positionLocked returns the global position of the row with the
// given stable id, or -1. The id column is ascending, so this is a
// binary search. Callers hold mu.
func (s *Engine) positionLocked(id series.RowID) int {
	ids := s.data.IDs
	g := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	if g == len(ids) || ids[g] != id {
		return -1
	}
	return g
}

// deleteRows is the Delete implementation; the exported wrapper
// (telemetry.go) adds the optional timing instrumentation.
func (s *Engine) deleteRows(ids []series.RowID) int {
	if len(ids) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	drop := make([]uint64, (s.data.Len()+63)>>6)
	removed := 0
	for _, id := range ids {
		g := s.positionLocked(id)
		if g < 0 || drop[g>>6]&(1<<(uint(g)&63)) != 0 {
			continue
		}
		drop[g>>6] |= 1 << (uint(g) & 63)
		removed++
	}
	if removed > 0 {
		s.evictLocked(drop)
		s.epoch.Add(1)
	}
	return removed
}

// window is the Window implementation; the exported wrapper
// (telemetry.go) adds the optional timing instrumentation.
func (s *Engine) window(n int) int {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	evict := s.data.Len() - n
	if evict <= 0 {
		return 0
	}
	// The oldest rows are the lowest global positions, and each
	// shard's rows sit in ascending global order: every shard loses a
	// prefix.
	drop := make([]uint64, (s.data.Len()+63)>>6)
	for w := 0; w < evict>>6; w++ {
		drop[w] = ^uint64(0)
	}
	if r := evict & 63; r != 0 {
		drop[evict>>6] = 1<<uint(r) - 1
	}
	s.evictLocked(drop)
	s.epoch.Add(1)
	return evict
}

// evictLocked removes the rows whose global positions are set in
// drop. The global view shrinks in place (surviving rows shift down
// in insertion order, and the tail is cleared so the evicted rows'
// storage is released). A shard that loses rows is rewritten in
// place and its index rebuilt (in parallel); every other shard only
// has its global positions remapped — its local data, and therefore
// its index, is untouched. Callers hold mu.
func (s *Engine) evictLocked(drop []uint64) {
	n := s.data.Len()
	remap := make([]int32, n)
	next := 0
	for g := 0; g < n; g++ {
		if drop[g>>6]&(1<<(uint(g)&63)) != 0 {
			remap[g] = -1
			continue
		}
		remap[g] = int32(next)
		s.data.Inputs[next] = s.data.Inputs[g]
		s.data.Targets[next] = s.data.Targets[g]
		s.data.IDs[next] = s.data.IDs[g]
		next++
	}
	clear(s.data.Inputs[next:])
	s.data.Inputs = s.data.Inputs[:next]
	s.data.Targets = s.data.Targets[:next]
	s.data.IDs = s.data.IDs[:next]

	var rebuild []*shard
	for _, sh := range s.parts {
		kept := 0
		for li, g := range sh.global {
			if remap[g] < 0 {
				continue
			}
			sh.global[kept] = remap[g]
			sh.data.Inputs[kept] = sh.data.Inputs[li]
			sh.data.Targets[kept] = sh.data.Targets[li]
			kept++
		}
		if kept == len(sh.global) {
			continue
		}
		clear(sh.data.Inputs[kept:])
		sh.global = sh.global[:kept]
		sh.data.Inputs = sh.data.Inputs[:kept]
		sh.data.Targets = sh.data.Targets[:kept]
		rebuild = append(rebuild, sh)
	}
	parallel.For(len(rebuild), s.workers, func(k int) {
		rebuild[k].idx = core.NewMatchIndex(rebuild[k].data)
	})
}

// Compact does nothing and returns 0: Delete and Window already
// remove rows physically.
//
// Deprecated: kept only because core.Store still declares it for the
// end-to-end benchmark (perfbench). Do not call it.
func (s *Engine) Compact() int { return 0 }
