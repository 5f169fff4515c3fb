package core

import (
	"context"

	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/series"
)

func matchIndexDataset(t *testing.T, n, d int) *series.Dataset {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.3*math.Sin(2*math.Pi*float64(i)/13)
	}
	ds, err := series.Window(series.New("idx", v), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestMatchIndexAllWildcard(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	r := NewRule([]Interval{Wild(), Wild(), Wild()})
	got := ev.Backend().MatchIndices(r)
	if len(got) != ds.Len() {
		t.Fatalf("all-wildcard rule matched %d of %d patterns", len(got), ds.Len())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestMatchIndexEmptyInterval(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	// Interval entirely above the data range: nothing matches, and the
	// result must be nil (not an empty non-nil slice) to stay
	// interchangeable with the linear scan.
	r := NewRule([]Interval{NewInterval(10, 11), Wild(), Wild()})
	if got := ev.Backend().MatchIndices(r); got != nil {
		t.Fatalf("impossible rule matched %v", got)
	}
}

func TestMatchIndexInvertedInterval(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ix := NewMatchIndex(ds)
	// Lo > Hi constructed directly (ReadJSON can also produce this):
	// Contains is false everywhere, so the engine must return nil —
	// and not panic on an inverted candidate range.
	r := NewRule([]Interval{{Lo: 0.5, Hi: -0.5}, Wild(), Wild()})
	if got, ok := ix.lookupInto(nil, r, new(matchScratch)); !ok || got != nil {
		t.Fatalf("inverted interval: lookupInto = %v, %v; want nil, true", got, ok)
	}
}

// NaN inputs have no total order, so the sorted index cannot answer
// for them; the engine must declare itself degenerate and defer to
// the scan, whose Rule.Match semantics treat NaN as inside every
// interval.
func TestMatchIndexNaNFallsBackToScan(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ds.Inputs[7] = []float64{math.NaN(), 0.1, 0.1}
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	r := NewRule([]Interval{NewInterval(-0.5, 0.5), Wild(), Wild()})
	indexed := ev.Backend().MatchIndices(r)
	naive := ev.MatchIndicesScan(r)
	if len(indexed) != len(naive) {
		t.Fatalf("indexed matched %d, naive %d", len(indexed), len(naive))
	}
	for k := range indexed {
		if indexed[k] != naive[k] {
			t.Fatalf("indexed[%d] = %d, naive %d", k, indexed[k], naive[k])
		}
	}
	found := false
	for _, i := range indexed {
		if i == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("NaN pattern (matched by Rule.Match) missing from indexed result")
	}
}

// A NaN rule bound is unconstraining under Rule.Match semantics but
// meaningless to binary search; the engine must defer to the scan
// rather than return a spuriously empty match set.
func TestMatchIndexNaNBoundFallsBackToScan(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	r := NewRule([]Interval{{Lo: math.NaN(), Hi: 0.5}, Wild(), Wild()})
	indexed := ev.Backend().MatchIndices(r)
	naive := ev.MatchIndicesScan(r)
	if len(indexed) == 0 || len(indexed) != len(naive) {
		t.Fatalf("indexed matched %d, naive %d", len(indexed), len(naive))
	}
	for k := range indexed {
		if indexed[k] != naive[k] {
			t.Fatalf("indexed[%d] = %d, naive %d", k, indexed[k], naive[k])
		}
	}
}

// A shared prebuilt index must not change results: the same MultiRun
// with and without a MatchIndex as Runtime.Backend serializes to
// identical bytes.
func TestSharedIndexIdenticalResults(t *testing.T) {
	ds := matchIndexDataset(t, 300, 4)
	run := func(idx *MatchIndex) []byte {
		base := Default(4)
		base.PopSize = 20
		base.Generations = 150
		base.Seed = 9
		if idx != nil {
			base.Runtime.Backend = idx
		}
		res, err := MultiRun(context.Background(), MultiRunConfig{
			Base:           base,
			CoverageTarget: 2,
			MaxExecutions:  2,
			Parallelism:    2,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.RuleSet.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh := run(nil)
	shared := run(NewMatchIndex(ds))
	if !bytes.Equal(fresh, shared) {
		t.Fatal("shared index changed MultiRun results")
	}
}

// An index built over a different dataset must be ignored, not used.
func TestEvaluatorRejectsForeignIndex(t *testing.T) {
	dsA := matchIndexDataset(t, 80, 3)
	dsB := matchIndexDataset(t, 120, 3)
	ev := NewEvaluator(dsA, 1.0, 0, 1e-8, 1, EvalOptions{Backend: NewMatchIndex(dsB)})
	if ev.Backend().Data() != dsA {
		t.Fatal("evaluator kept an index built over a different dataset")
	}
	r := NewRule([]Interval{Wild(), Wild(), Wild()})
	if got := ev.Backend().MatchIndices(r); len(got) != dsA.Len() {
		t.Fatalf("matched %d patterns, want %d", len(got), dsA.Len())
	}
}

// The cache must evict rather than grow without bound.
func TestEvalCacheBounded(t *testing.T) {
	c := NewResultCache()
	for i := 0; i < resultCacheLimit+10; i++ {
		key := string(appendCondKey(nil, []Interval{NewInterval(float64(i), float64(i)+1)}))
		c.Put(key, &EvalResult{})
	}
	c.mu.RLock()
	size := len(c.m)
	c.mu.RUnlock()
	if size > resultCacheLimit {
		t.Fatalf("cache holds %d entries, limit %d", size, resultCacheLimit)
	}
}

// Property: NewMatchIndex derives each lag's order from the previous
// lag's, yet builds exactly the index that sorting every lag on its
// own does — identical perm and pre, bitwise-identical vals — on
// windowed Venice data, spaced lags (WindowEmbed), tie-heavy integer
// series, ±0 and ±Inf values, NaN data, n = 0, n = 1, n < step, D = 1,
// and datasets stitched the way the engine's lifecycle leaves its
// rows: window-trimmed prefixes followed by appended chunks, at seams
// that continue the series and at seams that do not.
func TestPropertyIndexBuildMatchesReference(t *testing.T) {
	check := func(name string, ds *series.Dataset) bool {
		t.Helper()
		if err := diffIndex(NewMatchIndex(ds), referenceMatchIndex(ds)); err != nil {
			t.Errorf("%s (n=%d, D=%d): %v", name, ds.Len(), ds.D, err)
			return false
		}
		return true
	}
	embed := func(v []float64, d, spacing int) *series.Dataset {
		t.Helper()
		ds, err := series.WindowEmbed(series.New("ref", v), d, spacing, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	venice, _, err := series.VenicePaper(1200, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	check("venice D=24", embed(venice.Values, 24, 1))
	mg, _, err := series.MackeyGlassPaper()
	if err != nil {
		t.Fatal(err)
	}
	check("mackey-glass D=4 spacing 6", embed(mg.Values, 4, 6))
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	signed := []float64{0, negZero, inf, -inf, 0, 1, negZero, -inf, inf, 0, negZero, negZero, 0, -1, inf, 0}
	check("±0 and ±Inf", embed(signed, 3, 1))
	check("n = 0", &series.Dataset{D: 3, Horizon: 1}) // a store a window emptied
	check("n = 1", embed([]float64{2, 1, 3}, 2, 1))
	check("n < step", embed([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5}, 4, 1))
	check("D = 1", embed([]float64{5, 3, 5, 3, 1, 0, 1}, 1, 1))
	check("NaN", embed([]float64{1, 2, math.NaN(), 4, 5, 6}, 2, 1))

	f := func(seed int64) bool {
		src := rng.New(seed)
		d := 1 + src.Intn(8)
		n := 1 + src.Intn(300)
		if src.Bool(0.3) {
			n = indexSizes[src.Intn(len(indexSizes))]
		}
		kind := src.Intn(3)
		values := func(m int) []float64 {
			v := make([]float64, m)
			for i := range v {
				switch {
				case kind == 0:
					v[i] = src.Uniform(-2, 2)
				case kind == 1:
					v[i] = float64(src.Intn(5) - 2) // tie-heavy
				default:
					v[i] = signed[src.Intn(len(signed))]
				}
			}
			return v
		}
		whole := embed(values(n+d), d, 1)
		spacing := 2 + src.Intn(3)
		if !check("window", whole) || !check("spaced", embed(values(n+(d-1)*spacing+1), d, spacing)) {
			return false
		}
		// A store's life: a trimmed prefix of the window, then chunks
		// that either continue the series or come from elsewhere.
		rows := &series.Dataset{D: d, Horizon: 1}
		keep := src.Intn(whole.Len())
		rows.Inputs = append(rows.Inputs, whole.Inputs[keep:]...)
		rows.Targets = append(rows.Targets, whole.Targets[keep:]...)
		for c := src.Intn(4); c > 0; c-- {
			chunk := whole
			if src.Bool(0.5) {
				chunk = embed(values(d+1+src.Intn(40)), d, 1)
			}
			from := src.Intn(chunk.Len())
			to := from + 1 + src.Intn(chunk.Len()-from)
			rows.Inputs = append(rows.Inputs, chunk.Inputs[from:to]...)
			rows.Targets = append(rows.Targets, chunk.Targets[from:to]...)
		}
		return check("stitched", rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fuzzValue decodes one fuzz byte into a pattern value or gene bound:
// mostly a coarse grid (so ties are common), plus NaN, ±Inf and -0.
func fuzzValue(b byte) float64 {
	switch b {
	case 250:
		return math.NaN()
	case 251:
		return math.Inf(1)
	case 252:
		return math.Inf(-1)
	case 253:
		return math.Copysign(0, -1)
	}
	return float64(int8(b)) / 16
}

// FuzzMatchIndex checks the rank-bitmap lookup against a Rule.Match
// scan for arbitrary data and rules: every answer the index gives must
// be the scan's set exactly (same indices, same order, nil for none),
// and it may decline only for NaN data or a NaN gene bound.
func FuzzMatchIndex(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{4, 2, 8, 0, 0, 0}, uint8(1))
	f.Add(bytes.Repeat([]byte{0, 16, 16, 250, 32, 0, 200}, 40), []byte{5, 0, 32, 1, 9, 9, 6, 240, 16, 7, 32, 0}, uint8(3))
	f.Add(bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 90), []byte{6, 252, 2, 7, 3, 251, 6, 253, 0, 5, 250, 4}, uint8(2))
	f.Fuzz(func(t *testing.T, values, genes []byte, d uint8) {
		dd := 1 + int(d)%6
		if len(values) > 4096 {
			values = values[:4096]
		}
		v := make([]float64, len(values))
		nan := false
		for i, b := range values {
			v[i] = fuzzValue(b)
			nan = nan || math.IsNaN(v[i])
		}
		ds, err := series.Window(series.New("fuzz", v), dd, 1)
		if err != nil {
			return
		}
		ix := NewMatchIndex(ds)
		if err := diffIndex(ix, referenceMatchIndex(ds)); err != nil {
			t.Fatalf("index over %d patterns, D=%d: %v", ds.Len(), dd, err)
		}
		var sc matchScratch
		for k := 0; k < 32 && len(genes) >= 3*dd; k++ {
			cond := make([]Interval, dd)
			nanBound := false
			for j := range cond {
				kind, lo, hi := genes[3*j], genes[3*j+1], genes[3*j+2]
				if kind%4 == 0 {
					cond[j] = Wild()
					continue
				}
				// Raw bounds: inverted, infinite and NaN ones included.
				cond[j] = Interval{Lo: fuzzValue(lo), Hi: fuzzValue(hi)}
				nanBound = nanBound || math.IsNaN(cond[j].Lo) || math.IsNaN(cond[j].Hi)
			}
			genes = genes[3*dd:]
			r := NewRule(cond)
			var want []int
			for i, row := range ds.Inputs {
				if r.Match(row) {
					want = append(want, i)
				}
			}
			got, ok := ix.lookupInto(nil, r, &sc)
			if !ok {
				if !nan && !nanBound {
					t.Fatalf("lookup declined a rule on clean data: %v", cond)
				}
				continue
			}
			if !intSlicesIdentical(got, want) {
				t.Fatalf("rule %v over %d patterns: lookup %v, scan %v", cond, ds.Len(), got, want)
			}
		}
	})
}
