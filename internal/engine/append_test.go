package engine

import (
	"context"

	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/series"
)

// windowTail returns the patterns a grown series adds beyond oldLen
// values: exactly what a streaming caller feeds Append.
func windowTail(values []float64, d, horizon, oldLen int) ([][]float64, []float64) {
	var inputs [][]float64
	var targets []float64
	first := oldLen - d - horizon + 1
	if first < 0 {
		first = 0
	}
	for i := first; i+d-1+horizon < len(values); i++ {
		inputs = append(inputs, values[i:i+d])
		targets = append(targets, values[i+d-1+horizon])
	}
	return inputs, targets
}

// TestAppendMatchesRebuild: after a stream of appends, (a) the index
// is rebuilt by the first query after each append and reused by the
// queries after it, (b) it is identical to a from-scratch build over
// the grown dataset, and (c) matched sets equal a fresh sequential
// evaluator over the grown dataset.
func TestAppendMatchesRebuild(t *testing.T) {
	const d, horizon = 3, 1
	src := rng.New(5)
	values := make([]float64, 400)
	x := 0.0
	for i := range values {
		x += src.Uniform(-1, 1)
		values[i] = x + 3*math.Sin(float64(i)/7)
	}
	prefix := 200
	ds, err := series.Window(series.New("stream", values[:prefix]), d, horizon)
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds, Options{})

	grown := prefix
	for _, chunk := range []int{50, 80, 70} {
		inputs, targets := windowTail(values[:grown+chunk], d, horizon, grown)
		grown += chunk

		before := s.index()
		if err := s.Append(inputs, targets); err != nil {
			t.Fatal(err)
		}
		after := s.index()
		if after == before {
			t.Fatal("append kept the index built over the old rows")
		}
		if s.index() != after {
			t.Fatal("a second query after one append rebuilt the index again")
		}
		if fresh := core.NewMatchIndex(ds); !reflect.DeepEqual(after, fresh) {
			t.Fatal("after append, the index differs from a from-scratch build")
		}
	}

	if s.LiveLen() != ds.Len() || s.Data() != ds {
		t.Fatal("append did not grow the original dataset in place")
	}
	want, err := series.Window(series.New("stream", values), d, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != want.Len() {
		t.Fatalf("grown dataset has %d patterns, a fresh window %d", ds.Len(), want.Len())
	}

	ref := core.NewEvaluator(ds, 0.5, 0, 1e-8, 1, core.EvalOptions{})
	rules := randomRules(ds, 40, 3)
	batched := s.MatchBatch(context.Background(), rules)
	lead := []int{-7, 3}
	for ri, r := range rules {
		want := ref.MatchIndicesScan(r)
		if got := s.MatchIndices(r); !intsEqual(got, want) {
			t.Fatalf("rule %d: post-append matched set diverges from sequential scan", ri)
		}
		if !intsEqual(batched[ri], want) {
			t.Fatalf("rule %d: post-append MatchBatch diverges from sequential scan", ri)
		}
		if got := s.AppendMatches(slices.Clip(lead), r); !intsEqual(got, append(slices.Clip(lead), want...)) {
			t.Fatalf("rule %d: AppendMatches %v, want %v then the scan", ri, got, lead)
		}
	}
}

// TestAppendInvalidatesCachedResults: a cache warmed before an append
// must never serve pre-append matched sets afterwards. Nothing drops
// the evaluator's entries; only the epoch-prefixed keys stand between
// a stale entry and a wrong result.
func TestAppendInvalidatesCachedResults(t *testing.T) {
	ds := testDataset(t, 120, 3, false)
	n0 := ds.Len()
	// A rule matching everything: its matched count is exactly the
	// dataset size, making staleness directly observable.
	all := core.NewRule([]core.Interval{core.Wild(), core.Wild(), core.Wild()})
	eng := New(ds, Options{})
	ev := core.NewEvaluator(ds, 0.5, 0, 1e-8, 1, core.EvalOptions{Backend: eng})

	r := all.Clone()
	ev.Evaluate(context.Background(), r)
	if r.Matches != n0 {
		t.Fatalf("pre-append Matches = %d, want %d", r.Matches, n0)
	}

	if err := eng.Append([][]float64{{0, 0, 0}, {0.1, 0.1, 0.1}}, []float64{0, 0.1}); err != nil {
		t.Fatal(err)
	}

	r2 := all.Clone()
	ev.Evaluate(context.Background(), r2)
	if r2.Matches != n0+2 {
		t.Fatalf("post-append Matches = %d, want %d — stale cache served a pre-append matched set", r2.Matches, n0+2)
	}
	// And batched evaluation agrees.
	r3 := all.Clone()
	ev.EvaluateAll(context.Background(), []*core.Rule{r3, all.Clone()})
	if r3.Matches != n0+2 {
		t.Fatalf("batched post-append Matches = %d, want %d", r3.Matches, n0+2)
	}
}
