package engine

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/parallel"
)

// shardPass is the reusable per-shard working state of one walk: the
// match-set arena every rule's shard-local result is appended into,
// the per-rule views into it, and the lookup scratch. Pooled across
// calls so a steady-state generation reuses the same few buffers;
// nothing in a shardPass ever escapes a query (merged results are
// written to a fresh buffer).
type shardPass struct {
	sc    core.MatchScratch
	arena []int
	mine  [][]int
}

var shardPassPool = sync.Pool{New: func() any { return new(shardPass) }}

// mergeScratch is the pooled state of one rule's result merge: the
// bitmap over global indices, which carries an all-zero-between-uses
// invariant (every merge clears the words it set), and the rule's
// per-shard segments.
type mergeScratch struct {
	words []uint64
	segs  [][]int
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// matchBatch is the MatchBatch implementation; the exported wrapper
// (telemetry.go) adds the optional latency/size instrumentation.
func (s *Shards) matchBatch(ctx context.Context, rules []*core.Rule) [][]int {
	out := make([][]int, len(rules))
	if len(rules) == 0 {
		return out
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	// Shard-major walk: each shard serves every rule, appending results
	// into its pooled arena and checking the context between rules so a
	// cancelled run abandons the walk mid-shard instead of finishing the
	// generation.
	locals := make([][][]int, len(s.parts))
	passes := make([]*shardPass, len(s.parts))
	defer func() {
		for _, p := range passes {
			if p != nil {
				shardPassPool.Put(p)
			}
		}
	}()
	if parallel.ForCtx(ctx, len(s.parts), s.workers, func(si int) {
		p := shardPassPool.Get().(*shardPass)
		passes[si] = p
		locals[si] = p.walk(ctx, s.parts[si], rules)
	}) != nil {
		return out
	}

	// Per-rule merge of the shard results (ascending global indices).
	// All merged results are segments of one freshly allocated flat
	// buffer — callers own their result slices, and no pooled memory
	// escapes.
	offs := make([]int, len(rules)+1)
	for w := range rules {
		t := 0
		for si := range locals {
			t += len(locals[si][w])
		}
		offs[w+1] = offs[w] + t
	}
	flat := make([]int, offs[len(rules)])
	parallel.ForCtx(ctx, len(rules), s.workers, func(w int) {
		if offs[w+1] == offs[w] {
			return // nothing matched: out[w] stays nil, like the scan path
		}
		ms := mergeScratchPool.Get().(*mergeScratch)
		segs := ms.segs[:0]
		for si := range locals {
			segs = append(segs, locals[si][w])
		}
		ms.segs = segs
		// Three-index segment: appends cannot cross into a sibling.
		out[w] = s.mergeIntoLocked(flat[offs[w]:offs[w]:offs[w+1]], segs, ms)
		mergeScratchPool.Put(ms)
	})
	return out
}

// walk matches every rule against one shard, appending the shard-local
// live matched sets into the pass's arena, and returns the per-rule
// views into it. It stops early (leaving later views nil) once ctx is
// cancelled.
func (p *shardPass) walk(ctx context.Context, sh *shard, rules []*core.Rule) [][]int {
	mine := p.mine
	if cap(mine) < len(rules) {
		mine = make([][]int, len(rules))
	} else {
		mine = mine[:len(rules)]
		clear(mine)
	}
	arena := p.arena[:0]
	for w, r := range rules {
		if ctx.Err() != nil {
			break
		}
		start := len(arena)
		arena = sh.matchInto(arena, r, &p.sc)
		// Capacity-capped view: a later rule appending to the arena can
		// never grow into this one's segment. (Arena growth may
		// reallocate; earlier views then point at the old backing, whose
		// values are unchanged.)
		mine[w] = arena[start:len(arena):len(arena)]
	}
	p.mine, p.arena = mine, arena
	return mine
}

// mergeIntoLocked unions one rule's per-shard local matches (segs[si]
// from shard si) into dst, ascending by global index. Shard index sets
// are disjoint but — after appends — interleaved, so hits are
// collected in the pooled bitmap over global indices and the touched
// word range is swept in order (clearing as it goes, restoring the
// scratch's all-zero invariant): O(k + touched-words), independent of
// shard layout, and deterministic for any parallelism.
func (s *Shards) mergeIntoLocked(dst []int, segs [][]int, ms *mergeScratch) []int {
	need := (s.data.Len() + 63) >> 6
	if cap(ms.words) < need {
		ms.words = make([]uint64, need)
	}
	words := ms.words[:need]
	wmin, wmax := need, -1
	for si, l := range segs {
		g := s.parts[si].global
		for _, li := range l {
			gi := g[li]
			wd := int(gi) >> 6
			words[wd] |= 1 << (uint(gi) & 63)
			wmin = min(wmin, wd)
			wmax = max(wmax, wd)
		}
	}
	for wd := wmin; wd <= wmax; wd++ {
		word := words[wd]
		if word == 0 {
			continue
		}
		words[wd] = 0
		dst = core.AppendWordBits(dst, wd, word)
	}
	return dst
}
