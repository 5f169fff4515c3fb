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

// testDataset mirrors the engine test generator so remote results can
// be compared against in-process ones over identical data.
func testDataset(t testing.TB, n, d int, nan bool) *series.Dataset {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.3*math.Sin(2*math.Pi*float64(i)/13)
	}
	ds, err := series.Window(series.New("remote-test", v), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nan && ds.Len() > 7 {
		row := append([]float64(nil), ds.Inputs[7]...)
		row[0] = math.NaN()
		ds.Inputs[7] = row
	}
	return ds
}

// randomRules mirrors the engine test population: stratified rules
// plus random intervals with wildcards, inverted and NaN bounds.
func randomRules(ds *series.Dataset, n int, seed int64) []*core.Rule {
	src := rng.New(seed)
	out := core.InitStratified(ds, n/2+1)
	lo, hi := ds.TargetRange()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	for len(out) < n {
		cond := make([]core.Interval, ds.D)
		for j := range cond {
			switch src.Intn(10) {
			case 0, 1, 2:
				cond[j] = core.Wild()
			case 3:
				cond[j] = core.Interval{Lo: hi, Hi: lo}
			case 4:
				cond[j] = core.Interval{Lo: math.NaN(), Hi: hi}
			default:
				a := src.Uniform(lo-0.2*span, hi+0.2*span)
				b := a + src.Uniform(0, 0.8*span)
				cond[j] = core.NewInterval(a, b)
			}
		}
		out = append(out, core.NewRule(cond))
	}
	return out[:n]
}

// cloneDataset deep-copies a dataset so a cluster and an in-process
// engine can each own one lifecycle over identical rows.
func cloneDataset(ds *series.Dataset) *series.Dataset {
	out := &series.Dataset{
		Inputs:  make([][]float64, ds.Len()),
		Targets: append([]float64(nil), ds.Targets...),
		D:       ds.D,
		Horizon: ds.Horizon,
	}
	if ds.IDs != nil {
		out.IDs = append([]series.RowID(nil), ds.IDs...)
	}
	for i, row := range ds.Inputs {
		out.Inputs[i] = append([]float64(nil), row...)
	}
	return out
}

// newLoopbackCluster starts `servers` in-process shard servers over
// the loopback transport and returns a cluster over them (not yet
// loaded) plus the transports, for fault injection.
func newLoopbackCluster(t testing.TB, servers int, srvOpt engine.Options, opt Options) (*Cluster, []*Loopback) {
	t.Helper()
	loops := make([]*Loopback, servers)
	dialers := make([]Dialer, servers)
	for i := range loops {
		loops[i] = NewLoopback(NewServer(srvOpt))
		dialers[i] = loops[i]
	}
	c, err := NewCluster(dialers, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, loops
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterMatchesEngine: a freshly loaded cluster answers every
// match query — per rule and batched — exactly like an in-process
// engine over the same rows.
func TestClusterMatchesEngine(t *testing.T) {
	for _, servers := range []int{1, 2, 3, 5} {
		ds := testDataset(t, 400, 3, true)
		eng := engine.New(cloneDataset(ds), engine.Options{Shards: 4})
		c, _ := newLoopbackCluster(t, servers, engine.Options{Shards: 2}, Options{})
		if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
			t.Fatal(err)
		}
		rules := randomRules(ds, 40, 7)
		batch := c.MatchBatch(context.Background(), rules)
		for i, r := range rules {
			want := eng.MatchIndices(r)
			if got := c.MatchIndices(r); !intsEqual(got, want) {
				t.Fatalf("servers=%d rule %d: MatchIndices %v, engine %v", servers, i, got, want)
			}
			if !intsEqual(batch[i], want) {
				t.Fatalf("servers=%d rule %d: MatchBatch %v, engine %v", servers, i, batch[i], want)
			}
		}
		if c.LiveLen() != eng.LiveLen() {
			t.Fatalf("LiveLen %d, engine %d", c.LiveLen(), eng.LiveLen())
		}
		if err := c.BackendErr(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterMoreServersThanRows: a tiny dataset over many servers
// (some get empty slices) still answers exactly.
func TestClusterMoreServersThanRows(t *testing.T) {
	ds := testDataset(t, 8, 2, false) // 6 patterns
	eng := engine.New(cloneDataset(ds), engine.Options{})
	c, _ := newLoopbackCluster(t, 9, engine.Options{}, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	// Appends must route into the empty servers, too.
	if err := c.Append([][]float64{{0.5, 0.5}}, []float64{0.25}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append([][]float64{{0.5, 0.5}}, []float64{0.25}); err != nil {
		t.Fatal(err)
	}
	for _, r := range randomRules(ds, 12, 3) {
		if got, want := c.MatchIndices(r), eng.MatchIndices(r); !intsEqual(got, want) {
			t.Fatalf("MatchIndices %v, engine %v", got, want)
		}
	}
}

// TestClusterSyncAdoptsServerState: a second client attaching to the
// same servers via Sync reconstructs the identical live view —
// including rows appended and deleted after the original Load — and
// answers queries identically. Sync
// is read-only: the writing cluster keeps working afterwards, even
// across a reconnect (a snapshot must not move server epochs).
func TestClusterSyncAdoptsServerState(t *testing.T) {
	ds := testDataset(t, 300, 3, false)
	c, loops := newLoopbackCluster(t, 3, engine.Options{Shards: 2}, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	if err := c.Append([][]float64{{1, 2, 3}, {2, 3, 4}}, []float64{9, 10}); err != nil {
		t.Fatal(err)
	}
	// The deleted rows must not reach the snapshot.
	c.Delete([]series.RowID{3, 50, 100})

	dialers := make([]Dialer, len(loops))
	for i, l := range loops {
		dialers[i] = l
	}
	c2, err := NewCluster(dialers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c2.LiveLen() != c.LiveLen() {
		t.Fatalf("synced LiveLen %d, original %d", c2.LiveLen(), c.LiveLen())
	}
	rules := randomRules(ds, 16, 11)
	for _, r := range rules {
		got, want := c2.MatchIndices(r), c.MatchIndices(r)
		if len(got) != len(want) {
			t.Fatalf("synced matched %d rows, original %d", len(got), len(want))
		}
		for k := range got {
			if c2.Data().IDs[got[k]] != c.Data().IDs[want[k]] {
				t.Fatalf("synced matched id mismatch at %d", k)
			}
		}
	}

	// The writer survives a reconnect after the foreign Sync: a
	// cancelled query poisons its connections, the redial re-verifies
	// epoch and live count — which the snapshot must not have moved.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	c.MatchBatch(cancelled, rules)
	for _, r := range rules {
		c.MatchIndices(r) // forces the redial + state check
	}
	if err := c.BackendErr(); err != nil {
		t.Fatalf("a read-only Sync poisoned the writing cluster: %v", err)
	}
}

// TestServerApplicationErrorKeepsConnection: a server-rejected
// request (wrong pattern width) comes back as an error without
// poisoning the connection or the cluster.
func TestServerApplicationErrorKeepsConnection(t *testing.T) {
	ds := testDataset(t, 100, 3, false)
	c, _ := newLoopbackCluster(t, 2, engine.Options{}, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	if err := c.Append([][]float64{{1, 2}}, []float64{3}); err == nil {
		t.Fatal("width-2 append against a width-3 dataset did not error")
	}
	if err := c.BackendErr(); err != nil {
		t.Fatalf("validation error tripped the sticky transport failure: %v", err)
	}
	if err := c.Append([][]float64{{1, 2, 3}}, []float64{4}); err != nil {
		t.Fatalf("cluster unusable after a validation error: %v", err)
	}
}

// TestCompositeEpochMonotonic: every mutation strictly increases the
// composite epoch, which expires every cached evaluation.
func TestCompositeEpochMonotonic(t *testing.T) {
	ds := testDataset(t, 200, 2, false)
	c, _ := newLoopbackCluster(t, 2, engine.Options{}, Options{})
	if err := c.Load(context.Background(), cloneDataset(ds)); err != nil {
		t.Fatal(err)
	}
	last := c.Epoch()
	step := func(name string, mutate func() bool) {
		t.Helper()
		if !mutate() {
			return
		}
		if e := c.Epoch(); e <= last {
			t.Fatalf("%s: epoch %d did not advance past %d", name, e, last)
		} else {
			last = e
		}
	}
	step("append", func() bool {
		return c.Append([][]float64{{1, 2}, {2, 3}}, []float64{4, 5}) == nil
	})
	step("delete", func() bool { return c.Delete([]series.RowID{0, 1}) > 0 })
	step("window", func() bool { return c.Window(c.LiveLen()-5) > 0 })
}
