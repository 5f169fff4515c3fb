package engine

import (
	"sort"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/series"
)

// This file is the mutation side of the lifecycle-managed store:
// tombstoned deletes and sliding windows, plus the compaction pass
// that physically reclaims tombstoned rows. Matching semantics are
// defined entirely by liveness — a tombstoned row is invisible to
// every match path the moment Delete returns — so compaction is pure
// bookkeeping: it renumbers global positions and frees memory but can
// never change a matched set, which is what keeps engine results
// bit-identical to a from-scratch build over the live rows.

// DefaultCompactThreshold is the per-shard dead-row ratio beyond
// which Delete/Window trigger an automatic compaction of that shard.
// A quarter keeps tombstone scan overhead and zombie memory bounded
// while batching enough deletions that each rewrite pays for itself.
const DefaultCompactThreshold = 0.25

// locateLocked finds the shard and local index holding the row with the
// given stable id, or (nil, -1). Global arrays keep ids ascending and
// each shard's global set ascending, so both lookups are binary
// searches. Callers hold mu.
func (s *Shards) locateLocked(id series.RowID) (*shard, int) {
	ids := s.data.IDs
	g := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	if g == len(ids) || ids[g] != id {
		return nil, -1
	}
	gi := int32(g)
	for _, sh := range s.parts {
		k := sort.Search(len(sh.global), func(j int) bool { return sh.global[j] >= gi })
		if k < len(sh.global) && sh.global[k] == gi {
			return sh, k
		}
	}
	return nil, -1
}

// deleteRows is the Delete implementation; the exported wrapper
// (telemetry.go) adds the optional timing instrumentation.
func (s *Shards) deleteRows(ids []series.RowID) int {
	if len(ids) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for _, id := range ids {
		if sh, li := s.locateLocked(id); sh != nil && sh.markDead(li) {
			removed++
			s.deadTotal++
		}
	}
	if removed > 0 {
		s.epoch.Add(1)
		s.maintainLocked()
	}
	return removed
}

// window is the Window implementation; the exported wrapper
// (telemetry.go) adds the optional timing instrumentation.
func (s *Shards) window(n int) int {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	evict := s.data.Len() - s.deadTotal - n
	if evict <= 0 {
		return 0
	}
	// The oldest live rows are the lowest global positions. Each
	// shard's rows already sit in ascending global order, so a P-way
	// head merge visits live rows oldest-first without any sorting.
	heads := make([]int, len(s.parts))
	skipDead := func(si int) {
		sh := s.parts[si]
		for heads[si] < sh.data.Len() && sh.isDead(heads[si]) {
			heads[si]++
		}
	}
	for si := range s.parts {
		skipDead(si)
	}
	for removed := 0; removed < evict; removed++ {
		best := -1
		for si, sh := range s.parts {
			if heads[si] >= sh.data.Len() {
				continue
			}
			if best < 0 || sh.global[heads[si]] < s.parts[best].global[heads[best]] {
				best = si
			}
		}
		sh := s.parts[best]
		sh.markDead(heads[best])
		s.deadTotal++
		heads[best]++
		skipDead(best)
	}
	s.epoch.Add(1)
	s.maintainLocked()
	return evict
}

// compact is the Compact implementation; the exported wrapper
// (telemetry.go) adds the optional timing instrumentation.
func (s *Shards) compact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sel []int
	for i, sh := range s.parts {
		if sh.deadN > 0 {
			sel = append(sel, i)
		}
	}
	removed := s.compactLocked(sel)
	if removed > 0 {
		s.epoch.Add(1)
	}
	return removed
}

// maintainLocked is the post-mutation policy pass shared by Delete
// and Window: compact every shard whose dead ratio crossed the
// threshold. The caller already bumped the epoch. Callers hold mu.
func (s *Shards) maintainLocked() {
	if s.compactThreshold < 0 {
		return
	}
	var sel []int
	for i, sh := range s.parts {
		if n := sh.data.Len(); n > 0 && sh.deadN > 0 &&
			float64(sh.deadN) >= s.compactThreshold*float64(n) {
			sel = append(sel, i)
		}
	}
	s.compactLocked(sel)
}

// compactLocked rewrites the selected shards live-only and shrinks
// the global view, returning the rows reclaimed. Selected shards get
// fresh local arrays and a rebuilt index (in parallel); every other
// shard only has its global positions remapped — its local data, and
// therefore its index, is untouched. Live rows keep their relative
// (insertion) order everywhere, so matched-set order — and with it
// the floating-point accumulation order of every regression — is
// preserved exactly. Callers hold mu.
func (s *Shards) compactLocked(sel []int) int {
	removed := 0
	for _, i := range sel {
		removed += s.parts[i].deadN
	}
	if removed == 0 {
		return 0
	}
	n := s.data.Len()

	// Which global rows disappear.
	drop := make([]uint64, (n+63)>>6)
	selected := make(map[int]bool, len(sel))
	for _, i := range sel {
		selected[i] = true
		sh := s.parts[i]
		for li := range sh.data.Inputs {
			if sh.isDead(li) {
				g := sh.global[li]
				drop[g>>6] |= 1 << (uint(g) & 63)
			}
		}
	}

	// Remap global positions and shrink the global arrays in place:
	// surviving rows shift down, keeping insertion order; the tail is
	// cleared so the evicted rows' storage is actually released.
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
	for g := next; g < n; g++ {
		s.data.Inputs[g] = nil
	}
	s.data.Inputs = s.data.Inputs[:next]
	s.data.Targets = s.data.Targets[:next]
	s.data.IDs = s.data.IDs[:next]
	s.deadTotal -= removed

	// Rewrite the selected shards live-only; remap everyone else.
	for i, sh := range s.parts {
		if !selected[i] {
			for k, g := range sh.global {
				sh.global[k] = remap[g]
			}
			continue
		}
		liveN := sh.live()
		global := make([]int32, 0, liveN)
		local := &series.Dataset{
			Inputs:  make([][]float64, 0, liveN),
			Targets: make([]float64, 0, liveN),
			D:       s.data.D,
			Horizon: s.data.Horizon,
		}
		for li := range sh.data.Inputs {
			if sh.isDead(li) {
				continue
			}
			global = append(global, remap[sh.global[li]])
			local.Inputs = append(local.Inputs, sh.data.Inputs[li])
			local.Targets = append(local.Targets, sh.data.Targets[li])
		}
		sh.global = global
		sh.data = local
		sh.dead = nil
		sh.deadN = 0
	}
	parallel.For(len(sel), s.workers, func(k int) {
		sh := s.parts[sel[k]]
		sh.idx = core.NewMatchIndex(sh.data)
	})
	return removed
}
