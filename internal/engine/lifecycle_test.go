package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/series"
)

// ids returns the stable ids of rows [lo,hi) of the engine's dataset.
func idsOf(eng *Engine, lo, hi int) []series.RowID {
	return append([]series.RowID(nil), eng.Data().IDs[lo:hi]...)
}

// TestDeleteHidesRowsImmediately: a deleted row disappears from every
// match path and from Data() before Delete returns.
func TestDeleteHidesRowsImmediately(t *testing.T) {
	ds := testDataset(t, 120, 3, false)
	n0 := ds.Len()
	eng := New(ds, Options{})
	wild := wildRule(3)
	eng.MatchIndices(wild) // build the index before the delete

	victims := idsOf(eng, 10, 25)
	if got := eng.Delete(victims); got != len(victims) {
		t.Fatalf("Delete removed %d, want %d", got, len(victims))
	}
	if eng.LiveLen() != n0-len(victims) || eng.Data().Len() != n0-len(victims) {
		t.Fatalf("after delete: live %d, Data() %d, want both %d", eng.LiveLen(), eng.Data().Len(), n0-len(victims))
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
				t.Fatalf("deleted row %d still matched", v)
			}
		}
	}
	// Batched path agrees.
	batch := eng.MatchBatch(context.Background(), []*core.Rule{wild})
	if !intsEqual(batch[0], got) {
		t.Fatal("MatchBatch disagrees with MatchIndices after a delete")
	}
	// The rebuilt index answers exactly like a fresh sequential
	// evaluator over the shrunken view.
	ref := core.NewEvaluator(eng.Data(), 0.5, 0, 1e-8, 1, core.EvalOptions{})
	for ri, r := range randomRules(eng.Data(), 30, 9) {
		if got := eng.MatchIndices(r); !intsEqual(got, ref.MatchIndicesScan(r)) {
			t.Fatalf("rule %d: post-delete matched set diverges from sequential scan", ri)
		}
	}
	// Deleting the same ids again is a no-op and must not bump the epoch.
	if n := eng.Delete(victims); n != 0 || eng.Epoch() != 1 {
		t.Fatalf("re-delete removed %d (epoch %d), want 0 (epoch 1)", n, eng.Epoch())
	}
}

// TestWindowKeepsNewest: Window(n) retains exactly the n newest live
// rows by insertion order, across repeat calls.
func TestWindowKeepsNewest(t *testing.T) {
	ds := testDataset(t, 150, 3, false)
	n0 := ds.Len()
	eng := New(ds, Options{})

	if evicted := eng.Window(n0 + 10); evicted != 0 {
		t.Fatalf("Window larger than live evicted %d rows", evicted)
	}
	if evicted := eng.Window(40); evicted != n0-40 {
		t.Fatalf("Window(40) evicted %d, want %d", evicted, n0-40)
	}
	if eng.LiveLen() != 40 || eng.Data().Len() != 40 {
		t.Fatalf("after Window(40): live %d, Data() %d", eng.LiveLen(), eng.Data().Len())
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

// TestDeferredBuildConcurrentQueries: after Append then Window the
// index is stale, and the first queries build it; 8 goroutines racing
// to be first, through AppendMatches and MatchBatch, must each get the
// answer of a fresh index over Data(). Run it under -race.
func TestDeferredBuildConcurrentQueries(t *testing.T) {
	ds := testDataset(t, 600, 4, false)
	eng := New(ds, Options{})
	rules := randomRules(ds, 24, 8)
	eng.MatchIndices(rules[0]) // build, so the mutations below discard a built index

	tail := testDataset(t, 700, 4, false)
	inputs, targets := tail.Inputs[ds.Len():], tail.Targets[ds.Len():]
	if err := eng.Append(inputs, targets); err != nil {
		t.Fatal(err)
	}
	if evicted := eng.Window(500); evicted == 0 {
		t.Fatal("Window evicted nothing")
	}

	fresh := core.NewMatchIndex(eng.Data())
	want := make([][]int, len(rules))
	for i, r := range rules {
		want[i] = fresh.MatchIndices(r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				for i, r := range rules {
					if got := eng.AppendMatches(nil, r); !intsEqual(got, want[i]) {
						t.Errorf("goroutine %d rule %d: AppendMatches %v, fresh index %v", g, i, got, want[i])
						return
					}
				}
				return
			}
			for i, got := range eng.MatchBatch(context.Background(), rules) {
				if !intsEqual(got, want[i]) {
					t.Errorf("goroutine %d rule %d: MatchBatch %v, fresh index %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
