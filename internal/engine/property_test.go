package engine

import (
	"context"

	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/series"
)

// randomDataset draws a noisy random-walk dataset; nanEvery > 0
// poisons every nanEvery-th pattern with a NaN input, producing the
// degenerate datasets the index must defer to scans on.
func randomDataset(t testing.TB, src *rng.Source, n, d int, nanEvery int) *series.Dataset {
	t.Helper()
	v := make([]float64, n)
	x := 0.0
	for i := range v {
		x += src.Uniform(-1, 1)
		v[i] = x + 5*math.Sin(float64(i)/9)
	}
	ds, err := series.Window(series.New("prop", v), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nanEvery > 0 {
		for i := 0; i < ds.Len(); i += nanEvery {
			row := append([]float64(nil), ds.Inputs[i]...)
			row[src.Intn(d)] = math.NaN()
			ds.Inputs[i] = row
		}
	}
	return ds
}

// bitsEqual compares floats bit-for-bit, so NaN==NaN and -0!=+0 —
// the "byte-identical" the engine promises, not approximate equality.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireIdentical asserts two evaluated rules carry bit-identical
// results.
func requireIdentical(t *testing.T, label string, ri int, got, want *core.Rule) {
	t.Helper()
	fail := func(field string, g, w any) {
		t.Fatalf("%s rule %d: %s = %v, want %v", label, ri, field, g, w)
	}
	if got.Matches != want.Matches {
		fail("Matches", got.Matches, want.Matches)
	}
	if !bitsEqual(got.Fitness, want.Fitness) {
		fail("Fitness", got.Fitness, want.Fitness)
	}
	if !bitsEqual(got.Error, want.Error) {
		fail("Error", got.Error, want.Error)
	}
	if !bitsEqual(got.Prediction, want.Prediction) {
		fail("Prediction", got.Prediction, want.Prediction)
	}
	if (got.Fit == nil) != (want.Fit == nil) {
		fail("Fit nil-ness", got.Fit == nil, want.Fit == nil)
	}
	if got.Fit != nil {
		if !bitsEqual(got.Fit.Intercept, want.Fit.Intercept) {
			fail("Fit.Intercept", got.Fit.Intercept, want.Fit.Intercept)
		}
		for j := range got.Fit.Coef {
			if !bitsEqual(got.Fit.Coef[j], want.Fit.Coef[j]) {
				fail("Fit.Coef", got.Fit.Coef, want.Fit.Coef)
			}
		}
	}
}

// cloneAll deep-copies a population so each evaluation path starts
// from identical prior state (zero-match rules keep their prior
// Prediction, so the priors must agree too).
func cloneAll(rules []*core.Rule) []*core.Rule {
	out := make([]*core.Rule, len(rules))
	for i, r := range rules {
		out[i] = r.Clone()
	}
	return out
}

// checkEngineEquivalence is the property: for the given dataset and
// rules, the engine-backed evaluator — any worker count, batched or
// per-rule, with or without the shared cache — is bit-identical to
// the sequential single-index evaluator.
func checkEngineEquivalence(t *testing.T, ds *series.Dataset, rules []*core.Rule, workers int, shared bool, batch int) {
	t.Helper()
	const emax, fmin, ridge = 0.7, 0.0, 1e-8

	want := cloneAll(rules)
	ref := core.NewEvaluator(ds, emax, fmin, ridge, 1, core.EvalOptions{})
	for _, r := range want {
		ref.Evaluate(context.Background(), r)
	}

	eng := New(ds, Options{})
	opt := core.EvalOptions{Backend: eng}
	if shared {
		opt.Cache = eng.Cache()
	}
	ev := core.NewEvaluator(ds, emax, fmin, ridge, workers, opt)

	label := "batched"
	got := cloneAll(rules)
	if batch <= 0 {
		label = "per-rule"
		for _, r := range got {
			ev.Evaluate(context.Background(), r)
		}
	} else {
		for lo := 0; lo < len(got); lo += batch {
			hi := min(lo+batch, len(got))
			ev.EvaluateAll(context.Background(), got[lo:hi])
		}
	}
	for i := range got {
		requireIdentical(t, label, i, got[i], want[i])
	}

	// Second pass over clones: with the cache warm (shared or
	// private), results must still be bit-identical.
	again := cloneAll(rules)
	ev.EvaluateAll(context.Background(), again)
	for i := range again {
		requireIdentical(t, label+"+warm-cache", i, again[i], want[i])
	}
}

// TestEngineEquivalentToSequential sweeps worker counts, batch sizes
// and cache sharing over clean and NaN-degenerate datasets — engine ≡
// sequential, bit for bit.
func TestEngineEquivalentToSequential(t *testing.T) {
	src := rng.New(99)
	for _, nanEvery := range []int{0, 13} {
		ds := randomDataset(t, src, 260, 3, nanEvery)
		rules := randomRules(ds, 40, 7)
		for _, batch := range []int{0, 1, 7, 40} {
			checkEngineEquivalence(t, ds, rules, 1, false, batch)
			checkEngineEquivalence(t, ds, rules, 0, true, batch)
		}
	}
}

// TestEngineEquivalenceRandomized drives many random dataset/rule
// draws through random evaluator shapes.
func TestEngineEquivalenceRandomized(t *testing.T) {
	src := rng.New(2026)
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 40 + src.Intn(400)
		d := 1 + src.Intn(5)
		nanEvery := 0
		if src.Bool(0.3) {
			nanEvery = 2 + src.Intn(20)
		}
		ds := randomDataset(t, src, n, d, nanEvery)
		rules := randomRules(ds, 1+src.Intn(30), int64(trial))
		batch := src.Intn(len(rules) + 1)
		checkEngineEquivalence(t, ds, rules, 1+src.Intn(4), src.Bool(0.5), batch)
	}
}

// scan is the reference matched set: every row of ds that r matches,
// ascending.
func scan(ds *series.Dataset, r *core.Rule) []int {
	var out []int
	for i, row := range ds.Inputs {
		if r.Match(row) {
			out = append(out, i)
		}
	}
	return out
}

// FuzzEngineMatch fuzzes the match layer across the lifecycle: over an
// arbitrary dataset/rule draw and an arbitrary sequence of Append,
// Delete and Window calls — queried after some steps and not others,
// so one deferred index build serves a burst of mutations —
// Engine.MatchIndices and MatchBatch must equal the reference linear
// scan over Data(), and AppendMatches must append it to whatever dst
// held.
func FuzzEngineMatch(f *testing.F) {
	f.Add(int64(1), uint8(100), uint8(3), uint8(2), false)
	f.Add(int64(7), uint8(200), uint8(1), uint8(5), true)
	f.Add(int64(42), uint8(30), uint8(4), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, n, d, steps uint8, nan bool) {
		nn := 20 + int(n)
		dd := 1 + int(d)%6
		src := rng.New(seed)
		nanEvery := 0
		if nan {
			nanEvery = 3 + int(n)%17
		}
		ds := randomDataset(t, src, nn, dd, nanEvery)
		rules := randomRules(ds, 12, seed+1)
		lo, hi := ds.TargetRange()
		s := New(ds, Options{})
		check := func(step string) {
			t.Helper()
			batch := s.MatchBatch(context.Background(), rules)
			for ri, r := range rules {
				want := scan(s.Data(), r)
				if got := s.MatchIndices(r); !intsEqual(got, want) {
					t.Fatalf("%s rule %d: MatchIndices %v, scan %v", step, ri, got, want)
				}
				if !intsEqual(batch[ri], want) {
					t.Fatalf("%s rule %d: MatchBatch %v, scan %v", step, ri, batch[ri], want)
				}
				dst := make([]int, ri%3, ri%3+len(want)/2) // a prefix, and room for part of the set
				if got := s.AppendMatches(dst, r); !intsEqual(got, append(make([]int, ri%3), want...)) {
					t.Fatalf("%s rule %d: AppendMatches %v, want %d zeros then scan %v", step, ri, got, ri%3, want)
				}
			}
		}
		check("build")
		rounds := 1 + int(steps)%10
		for k := 0; k < rounds; k++ {
			step := ""
			switch src.Intn(3) {
			case 0:
				m := 1 + src.Intn(12)
				inputs := make([][]float64, m)
				targets := make([]float64, m)
				for i := range inputs {
					row := make([]float64, dd)
					for j := range row {
						row[j] = src.Uniform(lo, hi)
					}
					if nan && src.Bool(0.2) {
						row[src.Intn(dd)] = math.NaN()
					}
					inputs[i], targets[i] = row, src.Uniform(lo, hi)
				}
				if err := s.Append(inputs, targets); err != nil {
					t.Fatal(err)
				}
				step = "append"
			case 1:
				var ids []series.RowID
				for _, id := range s.Data().IDs {
					if src.Bool(0.2) {
						ids = append(ids, id)
					}
				}
				s.Delete(append(ids, -1))
				step = "delete"
			case 2:
				s.Window(src.Intn(s.LiveLen() + 2))
				step = "window"
			}
			if k == rounds-1 || src.Bool(0.5) {
				check(step)
			}
		}
	})
}
