package remote

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/series"
)

// This file mirrors the engine's lifecycle property test one level
// up: a Cluster over the loopback transport (real codec, framing and
// server loop — just no sockets) must be bit-identical to BOTH the
// in-process engine and a from-scratch sequential evaluator over the
// live rows, across arbitrary interleavings of append/delete/window,
// on clean and NaN-degenerate data — and no client-side cache entry may survive a mutation epoch.

// naiveStore is the flat reference model: live rows in insertion
// order, rebuilt on every mutation.
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

func wildRule(d int) *core.Rule {
	cond := make([]core.Interval, d)
	for j := range cond {
		cond[j] = core.Wild()
	}
	return core.NewRule(cond)
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

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

func cloneAll(rules []*core.Rule) []*core.Rule {
	out := make([]*core.Rule, len(rules))
	for i, r := range rules {
		out[i] = r.Clone()
	}
	return out
}

// randomDataset mirrors the engine property generator (random walk
// plus seasonal term, optional NaN injection).
func randomDataset(t testing.TB, src *rng.Source, n, d, nanEvery int) *series.Dataset {
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

// checkTriEquivalence asserts cluster ≡ engine ≡ naive: live sets
// (size, ids, order, via the all-wildcard rule), matched id sets rule
// by rule, and evaluations — batched and per-rule through the
// cluster-backed evaluator and its cache — bit-identical to a
// fresh sequential evaluator over the naive rows.
func checkTriEquivalence(t *testing.T, step string, c *Cluster, eng *engine.Engine, cev *core.Evaluator, m *naiveStore, rules []*core.Rule) {
	t.Helper()
	if c.LiveLen() != len(m.ids) || eng.LiveLen() != len(m.ids) {
		t.Fatalf("%s: LiveLen cluster=%d engine=%d, model has %d", step, c.LiveLen(), eng.LiveLen(), len(m.ids))
	}

	for ri, r := range rules {
		cIdx := c.MatchIndices(r)
		eIdx := eng.MatchIndices(r)
		if len(cIdx) != len(eIdx) {
			t.Fatalf("%s rule %d: cluster matched %d rows, engine %d", step, ri, len(cIdx), len(eIdx))
		}
		for k := range cIdx {
			if c.Data().IDs[cIdx[k]] != eng.Data().IDs[eIdx[k]] {
				t.Fatalf("%s rule %d: matched id mismatch at %d: cluster %d, engine %d",
					step, ri, k, c.Data().IDs[cIdx[k]], eng.Data().IDs[eIdx[k]])
			}
		}
	}

	const emax, fmin, ridge = 0.7, 0.0, 1e-8
	ref := core.NewEvaluator(m.dataset(), emax, fmin, ridge, 1, core.EvalOptions{})
	want := cloneAll(rules)
	for _, r := range want {
		ref.Evaluate(context.Background(), r)
	}
	gotBatch := cloneAll(rules)
	if err := cev.EvaluateAll(context.Background(), gotBatch); err != nil {
		t.Fatalf("%s: EvaluateAll over the cluster: %v", step, err)
	}
	for i := range gotBatch {
		requireIdentical(t, step+"/batched", i, gotBatch[i], want[i])
	}
	gotSingle := cloneAll(rules)
	for _, r := range gotSingle {
		cev.Evaluate(context.Background(), r)
	}
	for i := range gotSingle {
		requireIdentical(t, step+"/per-rule", i, gotSingle[i], want[i])
	}
}

// driveRemoteLifecycle runs one random mutation interleaving against
// the cluster, the in-process engine and the naive model.
func driveRemoteLifecycle(t *testing.T, seed int64, n0, d, nanEvery, servers, workers, rounds int) {
	src := rng.New(seed)
	ds := randomDataset(t, src, n0, d, nanEvery)
	ds.AssignIDs(0) // one id space shared by cluster, engine and model
	rules := append(randomRules(ds, 18, seed+1), wildRule(d))

	c, _ := newLoopbackCluster(t, servers, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cloneDataset(ds), engine.Options{})
	m := newNaiveStore(ds)

	const emax, fmin, ridge = 0.7, 0.0, 1e-8
	cev := core.NewEvaluator(c.Data(), emax, fmin, ridge, workers,
		core.EvalOptions{Backend: c})
	if cev.Backend() != core.Backend(c) {
		t.Fatal("evaluator did not adopt the cluster")
	}

	walk := 0.0
	checkTriEquivalence(t, "seed", c, eng, cev, m, rules)

	for round := 0; round < rounds; round++ {
		mutated := false
		step := ""
		epoch := c.Epoch()
		switch op := src.Intn(4); op {
		case 0, 1: // append a chunk
			k := 1 + src.Intn(16)
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
			if err := c.Append(inputs, targets); err != nil {
				t.Fatal(err)
			}
			if err := eng.Append(inputs, targets); err != nil {
				t.Fatal(err)
			}
			m.append(inputs, targets)
			mutated = true
			step = "append"
		case 2: // delete a random id set (some bogus, one duplicate)
			var ids []series.RowID
			for _, id := range m.ids {
				if src.Bool(0.15) {
					ids = append(ids, id)
				}
			}
			ids = append(ids, series.RowID(-4), m.next+100)
			if src.Bool(0.3) && len(m.ids) > 0 {
				ids = append(ids, m.ids[0])
			}
			got := c.Delete(ids)
			gotEng := eng.Delete(ids)
			want := m.delete(ids)
			if got != want || gotEng != want {
				t.Fatalf("round %d: Delete removed cluster=%d engine=%d, model %d", round, got, gotEng, want)
			}
			mutated = got > 0
			step = "delete"
		case 3: // slide the window
			n := src.Intn(len(m.ids) + 2)
			got := c.Window(n)
			gotEng := eng.Window(n)
			want := m.window(n)
			if got != want || gotEng != want {
				t.Fatalf("round %d: Window(%d) evicted cluster=%d engine=%d, model %d", round, n, got, gotEng, want)
			}
			mutated = got > 0
			step = "window"
		}
		if mutated && c.Epoch() <= epoch {
			t.Fatalf("round %d (%s): the mutation left the composite epoch at %d, so cached evaluations would survive it", round, step, c.Epoch())
		}
		if round%3 == 0 || round == rounds-1 {
			checkTriEquivalence(t, step, c, eng, cev, m, rules)
		}
	}
	checkTriEquivalence(t, "final", c, eng, cev, m, rules)
	if err := c.BackendErr(); err != nil {
		t.Fatalf("healthy run tripped the sticky failure: %v", err)
	}
}

// TestRemoteLifecycleEquivalence is the tentpole property: the
// scatter/gather cluster over the real wire protocol is bit-identical
// to the in-process engine and to a from-scratch sequential build
// over the live rows, through arbitrary mutation interleavings, at
// any server/worker shape, on clean and NaN-degenerate data.
func TestRemoteLifecycleEquivalence(t *testing.T) {
	for _, tc := range []struct {
		seed             int64
		nanEvery         int
		servers, workers int
	}{
		{seed: 1, nanEvery: 0, servers: 1, workers: 1},
		{seed: 2, nanEvery: 0, servers: 2, workers: 1},
		{seed: 3, nanEvery: 0, servers: 4, workers: 0},
		{seed: 4, nanEvery: 11, servers: 2, workers: 2},
		{seed: 5, nanEvery: 7, servers: 3, workers: 0},
	} {
		driveRemoteLifecycle(t, tc.seed, 140, 3, tc.nanEvery, tc.servers, tc.workers, 16)
	}
}

// TestRemoteLifecycleRandomized drives random interleavings through
// random cluster shapes.
func TestRemoteLifecycleRandomized(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	src := rng.New(4242)
	for trial := 0; trial < trials; trial++ {
		n0 := 30 + src.Intn(200)
		d := 1 + src.Intn(4)
		nanEvery := 0
		if src.Bool(0.3) {
			nanEvery = 3 + src.Intn(15)
		}
		driveRemoteLifecycle(t, int64(9000+trial), n0, d, nanEvery,
			1+src.Intn(4), src.Intn(4), 10)
	}
}

// FuzzRemoteLifecycle fuzzes the harness: arbitrary seeds, dataset
// and cluster shapes must stay bit-identical to both references.
func FuzzRemoteLifecycle(f *testing.F) {
	f.Add(int64(1), uint8(100), uint8(2), uint8(2), uint8(0))
	f.Add(int64(9), uint8(40), uint8(1), uint8(5), uint8(5))
	f.Add(int64(42), uint8(200), uint8(3), uint8(1), uint8(13))
	f.Fuzz(func(t *testing.T, seed int64, n, d, servers, nanEvery uint8) {
		driveRemoteLifecycle(t, seed,
			25+int(n), 1+int(d)%4, int(nanEvery)%20,
			1+int(servers)%5, int(servers)%4, 8)
	})
}
