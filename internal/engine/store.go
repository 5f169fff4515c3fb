package engine

import (
	"sort"

	"repro/internal/series"
)

// This file is the eviction side of the lifecycle-managed store:
// Delete and Window remove rows physically in the call that names
// them. Eviction never reorders the rows it keeps, so matched-set
// order — and with it the floating-point accumulation order of every
// regression — is exactly that of a from-scratch build over the
// remaining rows.

// positionLocked returns the position of the row with the given
// stable id, or -1. The id column is ascending, so this is a binary
// search. Callers hold mu.
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
		s.evictLocked(func(g int) bool { return drop[g>>6]&(1<<(uint(g)&63)) != 0 })
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
	// The oldest rows are the lowest positions.
	s.evictLocked(func(g int) bool { return g < evict })
	return evict
}

// evictLocked removes the rows at the positions drop reports. The
// dataset shrinks in place: surviving rows shift down in insertion
// order, and the tail is cleared so the evicted rows' storage is
// released. It discards the index and bumps the epoch. Callers hold mu.
func (s *Engine) evictLocked(drop func(g int) bool) {
	d, next := s.data, 0
	for g := range d.Inputs {
		if drop(g) {
			continue
		}
		d.Inputs[next], d.Targets[next], d.IDs[next] = d.Inputs[g], d.Targets[g], d.IDs[g]
		next++
	}
	clear(d.Inputs[next:])
	d.Inputs, d.Targets, d.IDs = d.Inputs[:next], d.Targets[:next], d.IDs[:next]
	s.resetLocked()
	s.epoch.Add(1)
}

// Compact does nothing and returns 0: Delete and Window already
// remove rows physically.
//
// Deprecated: kept only because core.Store still declares it for the
// end-to-end benchmark (perfbench). Do not call it.
func (s *Engine) Compact() int { return 0 }
