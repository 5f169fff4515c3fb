package engine

import (
	"context"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/parallel"
)

// shardPass is the reusable working state of one walk: the match-set
// arena shard-local results are appended into, the views into it (per
// rule in a batch walk of one shard, per shard in a single-rule
// query), and the lookup scratch. Pooled across calls so a steady-state
// generation reuses the same few buffers; nothing in a shardPass ever
// escapes a query (merged results are written to the caller's or a
// fresh buffer).
type shardPass struct {
	sc    core.MatchScratch
	arena []int
	views [][]int
}

var shardPassPool = sync.Pool{New: func() any { return new(shardPass) }}

// segsPool recycles the per-shard segment lists of the batch merge.
var segsPool = sync.Pool{New: func() any { return new([][]int) }}

// matchBatch is the MatchBatch implementation; the exported wrapper
// (telemetry.go) adds the optional latency/size instrumentation.
func (s *Engine) matchBatch(ctx context.Context, rules []*core.Rule) [][]int {
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
		sp := segsPool.Get().(*[][]int)
		segs := (*sp)[:0]
		for si := range locals {
			segs = append(segs, locals[si][w])
		}
		// Three-index segment: appends cannot cross into a sibling.
		out[w] = s.mergeLocked(flat[offs[w]:offs[w]:offs[w+1]], segs)
		*sp = segs
		segsPool.Put(sp)
	})
	return out
}

// walk matches every rule against one shard, appending the shard-local
// live matched sets into the pass's arena, and returns the per-rule
// views into it. It stops early (leaving later views nil) once ctx is
// cancelled.
func (p *shardPass) walk(ctx context.Context, sh *shard, rules []*core.Rule) [][]int {
	mine := p.views
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
	p.views, p.arena = mine, arena
	return mine
}

// mergeLocked appends the union of one rule's per-shard local matches
// (segs[si] from shard si) to dst, ascending by global index. Shard
// index sets are disjoint and each shard's global indices ascend, so
// this is a k-way merge by runs: take the shard whose next global
// index is smallest and copy its indices while they stay below every
// other shard's next one. Shards that do not interleave (every layout
// New builds) are each copied in one run, so the merge is one pass;
// after appends interleave them it is still exact. O(k + P·runs) for
// k hits over P shards, and deterministic for any parallelism. segs is
// consumed.
func (s *Engine) mergeLocked(dst []int, segs [][]int) []int {
	for {
		lead, next := -1, int32(math.MaxInt32)
		var head int32
		for si, l := range segs {
			if len(l) == 0 {
				continue
			}
			switch h := s.parts[si].global[l[0]]; {
			case lead < 0 || h < head:
				if lead >= 0 {
					next = head
				}
				lead, head = si, h
			case h < next:
				next = h
			}
		}
		if lead < 0 {
			return dst
		}
		g, l := s.parts[lead].global, segs[lead]
		k := 0
		for ; k < len(l) && g[l[k]] < next; k++ {
			dst = append(dst, int(g[l[k]]))
		}
		segs[lead] = l[k:]
	}
}
