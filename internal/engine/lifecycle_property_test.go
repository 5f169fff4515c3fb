package engine

import (
	"context"

	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/series"
)

// naiveStore is the reference model of the lifecycle-managed store: a
// flat list of live rows in insertion order, rebuilt from scratch on
// every mutation. The engine — any shard count, any worker count, any
// append/delete/window interleaving — must be
// bit-identical to a sequential evaluator over exactly these rows.
type naiveStore struct {
	inputs  [][]float64
	targets []float64
	ids     []series.RowID
	next    series.RowID
	d, hz   int
}

func newNaiveStore(ds *series.Dataset) *naiveStore {
	m := &naiveStore{d: ds.D, hz: ds.Horizon}
	m.inputs = append(m.inputs, ds.Inputs...)
	m.targets = append(m.targets, ds.Targets...)
	m.ids = append(m.ids, ds.IDs...)
	m.next = series.RowID(ds.Len())
	return m
}

func (m *naiveStore) dataset() *series.Dataset {
	return &series.Dataset{Inputs: m.inputs, Targets: m.targets, D: m.d, Horizon: m.hz}
}

func (m *naiveStore) append(inputs [][]float64, targets []float64) {
	m.inputs = append(m.inputs, inputs...)
	m.targets = append(m.targets, targets...)
	for range inputs {
		m.ids = append(m.ids, m.next)
		m.next++
	}
}

func (m *naiveStore) delete(ids []series.RowID) int {
	dead := make(map[series.RowID]bool, len(ids))
	for _, id := range ids {
		dead[id] = true
	}
	return m.filter(func(i int) bool { return !dead[m.ids[i]] })
}

func (m *naiveStore) window(n int) int {
	if n < 0 {
		n = 0
	}
	cut := len(m.ids) - n
	if cut <= 0 {
		return 0
	}
	return m.filter(func(i int) bool { return i >= cut })
}

// filter keeps rows where keep(i), preserving order; returns removed.
func (m *naiveStore) filter(keep func(int) bool) int {
	var in [][]float64
	var tg []float64
	var id []series.RowID
	for i := range m.ids {
		if keep(i) {
			in = append(in, m.inputs[i])
			tg = append(tg, m.targets[i])
			id = append(id, m.ids[i])
		}
	}
	removed := len(m.ids) - len(id)
	m.inputs, m.targets, m.ids = in, tg, id
	return removed
}

// wildRule returns the all-wildcard rule (matches every live row).
func wildRule(d int) *core.Rule {
	cond := make([]core.Interval, d)
	for j := range cond {
		cond[j] = core.Wild()
	}
	return core.NewRule(cond)
}

// checkLiveState asserts the engine's live row set — size, stable
// ids, order — equals the model's, via the all-wildcard matched set.
func checkLiveState(t *testing.T, step string, eng *Engine, m *naiveStore) {
	t.Helper()
	if eng.LiveLen() != len(m.ids) {
		t.Fatalf("%s: LiveLen = %d, model has %d live rows", step, eng.LiveLen(), len(m.ids))
	}
	live := eng.MatchIndices(wildRule(m.d))
	if len(live) != len(m.ids) {
		t.Fatalf("%s: wildcard matched %d rows, model has %d", step, len(live), len(m.ids))
	}
	for k, g := range live {
		if eng.Data().IDs[g] != m.ids[k] {
			t.Fatalf("%s: live row %d has id %d, model says %d", step, k, eng.Data().IDs[g], m.ids[k])
		}
	}
	// Shard bookkeeping must cover exactly the rows.
	rows := 0
	for _, n := range shardSizes(eng) {
		rows += n
	}
	if rows != eng.Data().Len() {
		t.Fatalf("%s: shards cover %d rows, Data() holds %d", step, rows, eng.Data().Len())
	}
}

// checkEvalEquivalence asserts engine evaluations (per-rule and
// batched, against the shared cache) are bit-identical to a fresh
// sequential evaluator over the model's live rows, and that matched
// id sets agree rule by rule.
func checkEvalEquivalence(t *testing.T, step string, eng *Engine, ev *core.Evaluator, m *naiveStore, rules []*core.Rule) {
	t.Helper()
	const emax, fmin, ridge = 0.7, 0.0, 1e-8
	ref := core.NewEvaluator(m.dataset(), emax, fmin, ridge, 1, core.EvalOptions{})

	want := cloneAll(rules)
	for _, r := range want {
		ref.Evaluate(context.Background(), r)
	}
	gotBatch := cloneAll(rules)
	ev.EvaluateAll(context.Background(), gotBatch)
	for i := range gotBatch {
		requireIdentical(t, step+"/batched", i, gotBatch[i], want[i])
	}
	gotSingle := cloneAll(rules)
	for _, r := range gotSingle {
		ev.Evaluate(context.Background(), r)
	}
	for i := range gotSingle {
		requireIdentical(t, step+"/per-rule", i, gotSingle[i], want[i])
	}

	for ri, r := range rules {
		refIdx := ref.MatchIndicesScan(r)
		engIdx := eng.MatchIndices(r)
		if len(refIdx) != len(engIdx) {
			t.Fatalf("%s rule %d: engine matched %d rows, naive %d", step, ri, len(engIdx), len(refIdx))
		}
		for k := range refIdx {
			if eng.Data().IDs[engIdx[k]] != m.ids[refIdx[k]] {
				t.Fatalf("%s rule %d: matched id mismatch at %d", step, ri, k)
			}
		}
	}
}

// driveLifecycle runs one random interleaving of append/delete/window
// against an engine and the naive model, asserting equivalence (and cache emptiness after every
// mutation) throughout.
func driveLifecycle(t *testing.T, seed int64, n0, d, nanEvery, shards, workers, rounds int) {
	src := rng.New(seed)
	ds := randomDataset(t, src, n0, d, nanEvery)
	rules := append(randomRules(ds, 24, seed+1), wildRule(d))

	eng := New(ds, Options{Shards: shards, Workers: workers})
	m := newNaiveStore(ds)
	const emax, fmin, ridge = 0.7, 0.0, 1e-8
	ev := core.NewEvaluator(eng.Data(), emax, fmin, ridge, workers,
		core.EvalOptions{Backend: eng})
	if ev.Backend() != core.Backend(eng) {
		t.Fatal("evaluator did not adopt the engine")
	}

	walk := 0.0
	checkLiveState(t, "seed", eng, m)
	checkEvalEquivalence(t, "seed", eng, ev, m, rules)

	for round := 0; round < rounds; round++ {
		mutated := false
		step := ""
		epoch := eng.Epoch()
		switch op := src.Intn(4); op {
		case 0, 1: // append a chunk
			k := 1 + src.Intn(20)
			inputs := make([][]float64, k)
			targets := make([]float64, k)
			for i := range inputs {
				row := make([]float64, d)
				for j := range row {
					walk += src.Uniform(-1, 1)
					row[j] = walk
				}
				if nanEvery > 0 && src.Bool(0.1) {
					row[src.Intn(d)] = math.NaN()
				}
				inputs[i] = row
				walk += src.Uniform(-1, 1)
				targets[i] = walk
			}
			if err := eng.Append(inputs, targets); err != nil {
				t.Fatal(err)
			}
			m.append(inputs, targets)
			mutated = true
			step = "append"
		case 2: // delete a random id set (some bogus)
			var ids []series.RowID
			for _, id := range m.ids {
				if src.Bool(0.15) {
					ids = append(ids, id)
				}
			}
			ids = append(ids, series.RowID(-4), m.next+100) // never existed
			if src.Bool(0.3) && len(m.ids) > 0 {
				ids = append(ids, m.ids[0]) // duplicate: must count once
			}
			got := eng.Delete(ids)
			want := m.delete(ids)
			if got != want {
				t.Fatalf("round %d: Delete removed %d, model %d", round, got, want)
			}
			mutated = got > 0
			step = "delete"
		case 3: // slide the window
			n := src.Intn(len(m.ids) + 2)
			got := eng.Window(n)
			want := m.window(n)
			if got != want {
				t.Fatalf("round %d: Window(%d) evicted %d, model %d", round, n, got, want)
			}
			mutated = got > 0
			step = "window"
		}
		if mutated && eng.Epoch() <= epoch {
			t.Fatalf("round %d (%s): the mutation left the epoch at %d, so cached evaluations would survive it", round, step, eng.Epoch())
		}
		checkLiveState(t, step, eng, m)
		if round%3 == 0 || round == rounds-1 {
			checkEvalEquivalence(t, step, eng, ev, m, rules)
		}
	}
	checkEvalEquivalence(t, "final", eng, ev, m, rules)
}

// TestLifecycleEquivalentToNaiveRebuild is the tentpole property:
// after arbitrary append/delete/window sequences, match
// and evaluation results are bit-identical to a from-scratch
// sequential engine over only the live rows — at any shard and worker
// count, on clean and NaN-degenerate data — and no cache entry ever
// survives a mutation epoch.
func TestLifecycleEquivalentToNaiveRebuild(t *testing.T) {
	for _, tc := range []struct {
		seed            int64
		nanEvery        int
		shards, workers int
	}{
		{seed: 1, nanEvery: 0, shards: 1, workers: 1},
		{seed: 2, nanEvery: 0, shards: 4, workers: 1},
		{seed: 3, nanEvery: 0, shards: 9, workers: 0},
		{seed: 4, nanEvery: 11, shards: 3, workers: 2},
		{seed: 5, nanEvery: 7, shards: 6, workers: 0},
	} {
		driveLifecycle(t, tc.seed, 150, 3, tc.nanEvery, tc.shards, tc.workers, 24)
	}
}

// TestLifecycleRandomized drives many random interleavings through
// random engine shapes.
func TestLifecycleRandomized(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 6
	}
	src := rng.New(777)
	for trial := 0; trial < trials; trial++ {
		n0 := 30 + src.Intn(250)
		d := 1 + src.Intn(4)
		nanEvery := 0
		if src.Bool(0.3) {
			nanEvery = 3 + src.Intn(15)
		}
		driveLifecycle(t, int64(1000+trial), n0, d, nanEvery, 1+src.Intn(8), src.Intn(4), 12)
	}
}

// FuzzLifecycle fuzzes the full lifecycle harness: arbitrary seeds,
// dataset shapes and engine shapes must all stay bit-identical to the
// naive rebuild.
func FuzzLifecycle(f *testing.F) {
	f.Add(int64(1), uint8(100), uint8(2), uint8(3), uint8(0))
	f.Add(int64(9), uint8(40), uint8(1), uint8(7), uint8(5))
	f.Add(int64(42), uint8(220), uint8(4), uint8(1), uint8(13))
	f.Fuzz(func(t *testing.T, seed int64, n, d, shards, nanEvery uint8) {
		driveLifecycle(t, seed,
			25+int(n), 1+int(d)%5, int(nanEvery)%20,
			1+int(shards)%10, int(shards)%4, 10)
	})
}
