package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/series"
)

// This file is the engine's telemetry seam. Instrument attaches an
// obs.Registry; the public store verbs below are thin wrappers that
// time the unexported implementations and refresh the lifecycle
// gauges. With no registry attached (the default) each wrapper is one
// nil check and a direct call — no closures, no defers, no
// allocations — which is what keeps the uninstrumented hot path at
// exactly the PR-6 baseline (see BenchmarkEngineBatchInstrumented and
// TestMatchBatchZeroAllocDisabled).

// telemetry bundles the engine's metric handles, pre-resolved at
// Instrument time so hot paths never touch the registry's name map.
type telemetry struct {
	reg *obs.Registry

	batchNs    *obs.Histogram // MatchBatch wall time, ns
	batchRules *obs.Histogram // rules served per MatchBatch call

	appendNs  *obs.Histogram
	deleteNs  *obs.Histogram
	windowNs  *obs.Histogram
	compactNs *obs.Histogram

	mutations *obs.Counter // mutations that changed the store
	epoch     *obs.Gauge   // current data epoch
	liveRows  *obs.Gauge   // live (non-tombstoned) rows
	liveSkew  *obs.Gauge   // largest / smallest live shard size
}

func newTelemetry(reg *obs.Registry) *telemetry {
	if reg == nil {
		return nil
	}
	return &telemetry{
		reg:        reg,
		batchNs:    reg.Histogram("engine_matchbatch_ns"),
		batchRules: reg.Histogram("engine_matchbatch_rules"),
		appendNs:   reg.Histogram("engine_append_ns"),
		deleteNs:   reg.Histogram("engine_delete_ns"),
		windowNs:   reg.Histogram("engine_window_ns"),
		compactNs:  reg.Histogram("engine_compact_ns"),
		mutations:  reg.Counter("engine_mutations"),
		epoch:      reg.Gauge("engine_epoch"),
		liveRows:   reg.Gauge("engine_live_rows"),
		liveSkew:   reg.Gauge("engine_live_skew"),
	}
}

// Instrument attaches a metrics registry to the engine: MatchBatch
// latency and batch sizes, per-verb mutation timings, and the
// epoch/live-rows/skew gauges. Call it before the engine is shared
// across goroutines (the field is written without the mutex, exactly
// like the construction-time policy fields); nil detaches. Purely
// observational — results are bit-identical instrumented or not.
func (s *Engine) Instrument(reg *obs.Registry) { s.tel = newTelemetry(reg) }

// afterMutation refreshes the mutation-facing metrics. It runs after
// the instrumented verb released the write lock, so the gauge reads
// take the ordinary read-locked accessors.
func (t *telemetry) afterMutation(s *Engine) {
	t.mutations.Inc()
	t.epoch.Set(float64(s.Epoch()))
	t.liveRows.Set(float64(s.LiveLen()))
	lo, hi := s.LiveSpread()
	skew := 0.0
	if lo > 0 {
		skew = float64(hi) / float64(lo)
	}
	t.liveSkew.Set(skew)
}

// MatchBatch answers one whole generation of rules in a single pass:
// each shard walks the batch on its own goroutine, appending every
// rule's shard-local matched set into a pooled arena, and the
// per-shard hits are merged rule by rule through the global bitmap.
// out[i] corresponds to rules[i] and is bit-identical to
// MatchIndices(rules[i]) — the fan-out is pure scheduling.
//
// The context bounds every parallel pass: once it is cancelled the
// remaining scheduling work is skipped, all fan-out goroutines drain
// before MatchBatch returns, and the result is incomplete — callers
// must check ctx.Err() and discard it (core.Evaluator does).
func (s *Engine) MatchBatch(ctx context.Context, rules []*core.Rule) [][]int {
	t := s.tel
	if t == nil {
		return s.matchBatch(ctx, rules)
	}
	if t.reg.Tracing() {
		// Child of whatever traced operation issued the batch: the
		// client-side evaluation pass in-process, the RPC handler span
		// on a shard server.
		var sp *obs.Span
		ctx, sp = t.reg.ChildSpanCtx(ctx, "engine.matchbatch")
		defer sp.End()
	}
	start := t.reg.Now()
	out := s.matchBatch(ctx, rules)
	t.batchNs.Observe(t.reg.Now() - start)
	t.batchRules.Observe(int64(len(rules)))
	return out
}

// AppendRows is Append with caller-chosen stable ids — the remote
// shard server's hook: a scatter/gather client owns the global RowID
// space, so each server must adopt the ids its slice of a chunk was
// assigned instead of numbering rows itself. ids must be strictly
// ascending and greater than every id already in the store (the
// invariant all mutations preserve); nil means number the rows
// automatically, which is exactly Append.
func (s *Engine) AppendRows(inputs [][]float64, targets []float64, ids []series.RowID) error {
	t := s.tel
	if t == nil || len(inputs) == 0 {
		// An empty append changes nothing: no epoch bump, so no
		// mutation to count (it still validates its arguments).
		return s.appendRows(inputs, targets, ids)
	}
	start := t.reg.Now()
	if err := s.appendRows(inputs, targets, ids); err != nil {
		return err
	}
	t.appendNs.Observe(t.reg.Now() - start)
	t.afterMutation(s)
	return nil
}

// Delete tombstones the rows with the given stable ids and returns
// how many were live before the call. Unknown or already-dead ids are
// ignored. Matched sets exclude the rows immediately; the epoch bump
// expires every cached evaluation. Shards whose dead ratio crosses
// the compaction threshold are compacted before Delete returns.
func (s *Engine) Delete(ids []series.RowID) int {
	t := s.tel
	if t == nil {
		return s.deleteRows(ids)
	}
	start := t.reg.Now()
	n := s.deleteRows(ids)
	t.deleteNs.Observe(t.reg.Now() - start)
	if n > 0 {
		t.afterMutation(s)
	}
	return n
}

// Window keeps only the newest n live rows and tombstones every older
// one — the sliding-window primitive — returning the number evicted.
// "Newest" is insertion order (ascending RowID), so a stream that
// appends chunks and calls Window(w) after each one trains on exactly
// the trailing w patterns. Eviction triggers the same threshold
// compaction as Delete.
func (s *Engine) Window(n int) int {
	t := s.tel
	if t == nil {
		return s.window(n)
	}
	start := t.reg.Now()
	evicted := s.window(n)
	t.windowNs.Observe(t.reg.Now() - start)
	if evicted > 0 {
		t.afterMutation(s)
	}
	return evicted
}

// Compact physically removes every tombstoned row: each shard holding
// dead rows is rewritten live-only and its index rebuilt, and the
// global dataset view shrinks in place (Data() keeps its pointer).
// Untouched shards keep their indexes — only their global numbering
// is remapped, an O(n) sweep that costs a fraction of one index
// rebuild. Returns the number of rows reclaimed.
func (s *Engine) Compact() int {
	t := s.tel
	if t == nil {
		return s.compact()
	}
	start := t.reg.Now()
	removed := s.compact()
	t.compactNs.Observe(t.reg.Now() - start)
	if removed > 0 {
		t.afterMutation(s)
	}
	return removed
}
