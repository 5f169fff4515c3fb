package engine

import (
	"context"

	"testing"

	"repro/internal/core"
	"repro/internal/series"
)

// ids returns the stable ids of rows [lo,hi) of the engine's dataset.
func idsOf(eng *Engine, lo, hi int) []series.RowID {
	return append([]series.RowID(nil), eng.Data().IDs[lo:hi]...)
}

// TestDeleteHidesRowsImmediately: a tombstoned row disappears from
// every match path before any compaction happens.
func TestDeleteHidesRowsImmediately(t *testing.T) {
	ds := testDataset(t, 120, 3, false)
	n0 := ds.Len()
	eng := New(ds, Options{Shards: 4, CompactThreshold: -1}) // no auto-compaction
	wild := wildRule(3)

	victims := idsOf(eng, 10, 25)
	if got := eng.Delete(victims); got != len(victims) {
		t.Fatalf("Delete removed %d, want %d", got, len(victims))
	}
	if eng.LiveLen() != n0-len(victims) || eng.Len() != n0 {
		t.Fatalf("after delete: live %d resident %d, want %d / %d", eng.LiveLen(), eng.Len(), n0-len(victims), n0)
	}
	if eng.Epoch() != 1 {
		t.Fatalf("epoch after delete = %d, want 1", eng.Epoch())
	}
	got := eng.MatchIndices(wild)
	if len(got) != n0-len(victims) {
		t.Fatalf("wildcard matches %d rows, want %d", len(got), n0-len(victims))
	}
	for _, g := range got {
		for _, v := range victims {
			if eng.Data().IDs[g] == v {
				t.Fatalf("tombstoned row %d still matched", v)
			}
		}
	}
	// Batched path agrees.
	batch := eng.MatchBatch(context.Background(), []*core.Rule{wild})
	if !intsEqual(batch[0], got) {
		t.Fatal("MatchBatch disagrees with MatchIndices on tombstoned data")
	}
	// Deleting the same ids again is a no-op and must not bump the epoch.
	if n := eng.Delete(victims); n != 0 || eng.Epoch() != 1 {
		t.Fatalf("re-delete removed %d (epoch %d), want 0 (epoch 1)", n, eng.Epoch())
	}
}

// TestCompactRebuildsOnlyDirtyShards is the compaction contract:
// deleting rows confined to one shard and compacting rewrites that
// shard alone — every other shard keeps its index pointer — while the
// global view shrinks to exactly the live rows.
func TestCompactRebuildsOnlyDirtyShards(t *testing.T) {
	ds := testDataset(t, 200, 3, false)
	n0 := ds.Len()
	eng := New(ds, Options{Shards: 4, CompactThreshold: -1})

	// The initial partition is contiguous, so the global prefix lives
	// entirely in shard 0.
	sizes := shardSizes(eng.Shards)
	victims := idsOf(eng, 0, sizes[0]/2)
	if got := eng.Delete(victims); got != len(victims) {
		t.Fatalf("Delete removed %d, want %d", got, len(victims))
	}

	before := make([]*core.MatchIndex, 0, 4)
	for _, sh := range eng.parts {
		before = append(before, sh.idx)
	}
	removed := eng.Compact()
	if removed != len(victims) {
		t.Fatalf("Compact reclaimed %d rows, want %d", removed, len(victims))
	}
	rebuilt := 0
	for i, sh := range eng.parts {
		if sh.idx != before[i] {
			rebuilt++
			if i != 0 {
				t.Fatalf("Compact rebuilt shard %d, want only shard 0", i)
			}
		}
	}
	if rebuilt != 1 {
		t.Fatalf("Compact rebuilt %d shard indexes, want exactly 1", rebuilt)
	}
	if eng.Data().Len() != n0-len(victims) || eng.LiveLen() != eng.Data().Len() {
		t.Fatalf("after Compact: resident %d live %d, want both %d", eng.Data().Len(), eng.LiveLen(), n0-len(victims))
	}
	// Every shard index — rewritten or remapped — still answers
	// exactly like a fresh sequential evaluator over the shrunken view.
	ref := core.NewEvaluator(eng.Data(), 0.5, 0, 1e-8, 1, core.EvalOptions{})
	for ri, r := range randomRules(eng.Data(), 30, 9) {
		if got := eng.MatchIndices(r); !intsEqual(got, ref.MatchIndicesScan(r)) {
			t.Fatalf("rule %d: post-compaction matched set diverges from sequential scan", ri)
		}
	}
	// Nothing dead: another Compact is a no-op and keeps the epoch.
	if e := eng.Epoch(); eng.Compact() != 0 || eng.Epoch() != e {
		t.Fatal("no-op Compact mutated the engine")
	}
}

// TestAutoCompactionThreshold: Delete compacts a shard automatically
// once its dead ratio crosses the configured threshold, and not
// before.
func TestAutoCompactionThreshold(t *testing.T) {
	ds := testDataset(t, 200, 3, false)
	eng := New(ds, Options{Shards: 4, CompactThreshold: 0.5})
	sizes := shardSizes(eng.Shards)

	// Kill just under half of shard 0: tombstones only, no compaction.
	under := idsOf(eng, 0, sizes[0]/2-1)
	eng.Delete(under)
	if eng.Len() != eng.LiveLen()+len(under) {
		t.Fatalf("sub-threshold delete must leave tombstones: resident %d live %d dead %d",
			eng.Len(), eng.LiveLen(), len(under))
	}

	// Push shard 0 over the threshold: it must compact itself.
	over := idsOf(eng, len(under), sizes[0]/2+2)
	eng.Delete(over)
	if eng.Len() != eng.LiveLen() {
		t.Fatalf("over-threshold delete left %d tombstoned rows resident", eng.Len()-eng.LiveLen())
	}
}

// TestWindowKeepsNewest: Window(n) retains exactly the n newest live
// rows by insertion order, across shard boundaries and repeat calls.
func TestWindowKeepsNewest(t *testing.T) {
	ds := testDataset(t, 150, 3, false)
	n0 := ds.Len()
	eng := New(ds, Options{Shards: 3})

	if evicted := eng.Window(n0 + 10); evicted != 0 {
		t.Fatalf("Window larger than live evicted %d rows", evicted)
	}
	if evicted := eng.Window(40); evicted != n0-40 {
		t.Fatalf("Window(40) evicted %d, want %d", evicted, n0-40)
	}
	if eng.LiveLen() != 40 {
		t.Fatalf("live after Window(40) = %d", eng.LiveLen())
	}
	live := eng.MatchIndices(wildRule(3))
	for k, g := range live {
		if want := series.RowID(n0 - 40 + k); eng.Data().IDs[g] != want {
			t.Fatalf("window row %d has id %d, want %d", k, eng.Data().IDs[g], want)
		}
	}

	// Appends slide the window forward: new rows in, oldest out.
	inputs := [][]float64{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}}
	if err := eng.Append(inputs, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if evicted := eng.Window(40); evicted != 3 {
		t.Fatalf("sliding Window evicted %d, want 3", evicted)
	}
	live = eng.MatchIndices(wildRule(3))
	if first := eng.Data().IDs[live[0]]; first != series.RowID(n0-40+3) {
		t.Fatalf("window start id %d, want %d", first, n0-40+3)
	}
	// Window(0) empties the store without breaking it.
	if evicted := eng.Window(0); evicted != 40 {
		t.Fatalf("Window(0) evicted %d, want 40", evicted)
	}
	if eng.LiveLen() != 0 || eng.MatchIndices(wildRule(3)) != nil {
		t.Fatal("emptied store still matches rows")
	}
	if err := eng.Append(inputs, []float64{1, 2, 3}); err != nil {
		t.Fatalf("append into emptied store: %v", err)
	}
	if eng.LiveLen() != 3 {
		t.Fatalf("live after refill = %d", eng.LiveLen())
	}
}

// TestConfigureCompactsTombstones: wiring the engine into a config
// hands consumers exactly the live rows. Match paths skip dead rows
// on their own, but training pipelines also read Data() directly
// (rule-init bounds, coverage counts), so Configure must not leave
// tombstones behind even when the caller never compacted explicitly.
func TestConfigureCompactsTombstones(t *testing.T) {
	ds := testDataset(t, 120, 3, false)
	eng := New(ds, Options{Shards: 4, CompactThreshold: -1}) // no auto-compaction
	victims := idsOf(eng, 0, 30)
	if got := eng.Delete(victims); got != len(victims) {
		t.Fatalf("Delete removed %d, want %d", got, len(victims))
	}
	if eng.Len() == eng.LiveLen() {
		t.Fatal("setup: tombstones were compacted before Configure ran")
	}
	var cfg core.Config
	eng.Configure(&cfg)
	if eng.Len() != eng.LiveLen() {
		t.Fatalf("after Configure: resident %d != live %d — Data() still holds tombstoned rows", eng.Len(), eng.LiveLen())
	}
	if eng.Data().Len() != eng.LiveLen() {
		t.Fatalf("Data() holds %d rows, want %d live", eng.Data().Len(), eng.LiveLen())
	}
	for _, g := range eng.Data().IDs {
		for _, v := range victims {
			if g == v {
				t.Fatalf("deleted row %d survived Configure", v)
			}
		}
	}
}
