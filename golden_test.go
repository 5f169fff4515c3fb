package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net"
	"testing"

	"repro/forecast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/series"
)

// Golden digests pin fixed-seed fits across commits. The repository's
// other bit-identity tests are relative (engine ≡ sequential, cluster ≡
// engine), so a change that shifts every evaluation path the same way —
// a new regression kernel, say — would pass them all. These constants
// are the SHA-256 of RuleSet.WriteJSON for each fit; a mismatch prints
// the new digest. An intentional change of results re-blesses by
// editing the constant and recording the reason in CHANGES.md.
const (
	// goldenVenice24: Venice D=24 (1,500 training hours, seed 3),
	// population 100, 200 generations.
	goldenVenice24 = "67283ce258093376982f036d14b5e552ee293722755d90cb75e20644481ac2ae"
	// goldenMackeyGlass4: the paper's Mackey-Glass protocol embedded at
	// D=4, spacing 6, horizon 50; seed 5, population 100, 2,000
	// generations.
	goldenMackeyGlass4 = "986e8468fbfcd9c6e190c05d9f468e98f1147d50b0eeb18811df986c372db23d"
	// goldenMackeyGlass4x2: the same protocol accumulated over two
	// executions run side by side (WithMultiRun(2), WithParallelism(2)).
	goldenMackeyGlass4x2 = "98300ccd1a1aa30fae93885082a0a7970d3dd61c18c4fd4fd56f17fff5842a3a"
	// goldenSunspots: the paper's sunspot training segment (seed 1,
	// whose 2,052 months hold 36 tied values) windowed at D=24,
	// horizon 1, EMAX 20% of the output span; seed 1, population 100,
	// 1,000 generations.
	goldenSunspots = "fd36f3153a56ed2194cb13ce7eb4497bdf57da6dc3f5c11d668cda4df459d0aa"
	// goldenLorenz: the Lorenz x-component normalized over 3,000
	// samples, the first 2,200 windowed at D=6, horizon 5; seed 7,
	// population 100, 1,000 generations.
	goldenLorenz = "e9def75d28a083220ee25b0e298de8972cc053e58d6128b969d02496c98cb901"
	// goldenVeniceStream: Venice D=24 (1,800 hours, seed 5) under a
	// 1,200-pattern sliding window — a Fit on the first 1,476 patterns,
	// then three Append rounds of 100 — population 60, 300 generations
	// per round. One digest chains every round's rule set.
	goldenVeniceStream = "c171abe42d8bcb78e6e236e2ab04a7ebb2fd5fec8ca436bd1b578e2b6a20450d"
	// goldenVeniceWorst, goldenVeniceOverlap and goldenVeniceFMin: the
	// goldenVenice24 data and seed under core configurations the facade
	// does not expose — ReplaceWorst; crowding by DistanceOverlap; and
	// a fitness floor FMin = 20·EMAX, above the fitness of every valid
	// rule matching fewer than 20 rows — each
	// one execution, population 100, 2,000 generations.
	goldenVeniceWorst   = "a0a867e9b28ee9726944e1462650964b11304f43ad9c1a1761c9df3853b698dd"
	goldenVeniceOverlap = "74acb2e5fb2b99012f63e968a814a5403355300f7a8fd826ccb6dc1e454227f0"
	goldenVeniceFMin    = "8277a3d3c4379ce579c1a164a435fb9ea7b1407d5155b53eed84d0d4f1fe4d42"
)

type goldenPath struct {
	name string
	opts func(t *testing.T) []forecast.Option
}

// goldenPaths are the evaluation paths every golden fit runs through:
// the evaluator's own single index, the sharded engine, and a cluster
// of two shard servers on loopback TCP.
var goldenPaths = []goldenPath{
	{"index", func(*testing.T) []forecast.Option { return nil }},
	{"engine2", func(*testing.T) []forecast.Option { return []forecast.Option{forecast.WithEngine(2)} }},
	{"cluster", func(t *testing.T) []forecast.Option {
		return []forecast.Option{forecast.WithRemoteCluster(goldenServer(t), goldenServer(t))}
	}},
}

// goldenServer starts one in-process shard server on a loopback TCP
// port for the duration of the test and returns its address.
func goldenServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	// Serve returns (with the listener's error) once cleanup closes the
	// listener; each connection's handler ends when the fit's cluster
	// hangs up.
	go remote.NewServer(engine.Options{Shards: 1}).Serve(context.Background(), l)
	return l.Addr().String()
}

// goldenDigest fits ds under the given options and hashes the
// serialized rule set.
func goldenDigest(t *testing.T, ds *forecast.Dataset, opts ...forecast.Option) string {
	t.Helper()
	f, err := forecast.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := f.RuleSet().WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden runs one fit per evaluation path (each on a freshly
// built dataset, since an engine takes over the dataset it is given)
// and compares every digest with want.
func checkGolden(t *testing.T, want string, data func() *forecast.Dataset, base ...forecast.Option) {
	checkGoldenPaths(t, goldenPaths, want, func(t *testing.T, opts []forecast.Option) string {
		return goldenDigest(t, data(), opts...)
	}, base...)
}

// checkGoldenPaths runs digest once per given evaluation path, with
// the path's options appended to base, and compares each result with
// want.
func checkGoldenPaths(t *testing.T, paths []goldenPath, want string, digest func(*testing.T, []forecast.Option) string, base ...forecast.Option) {
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			opts := append(append([]forecast.Option(nil), base...), p.opts(t)...)
			if got := digest(t, opts); got != want {
				t.Errorf("rule-set digest changed:\n got  %s\n want %s", got, want)
			}
		})
	}
}

func TestGoldenVenice24(t *testing.T) {
	train, _, err := series.VenicePaper(1500, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenVenice24, func() *forecast.Dataset {
		ds, err := forecast.Window(train, 24, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}, forecast.WithSeed(3), forecast.WithPopulation(100), forecast.WithGenerations(200))
}

func TestGoldenMackeyGlass4(t *testing.T) {
	train, _, err := series.MackeyGlassPaper()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenMackeyGlass4, func() *forecast.Dataset {
		ds, err := forecast.Embed(train, 4, 6, 50)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}, forecast.WithSeed(5), forecast.WithPopulation(100), forecast.WithGenerations(2000))
}

func TestGoldenMackeyGlass4x2(t *testing.T) {
	train, _, err := series.MackeyGlassPaper()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenMackeyGlass4x2, func() *forecast.Dataset {
		ds, err := forecast.Embed(train, 4, 6, 50)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}, forecast.WithSeed(5), forecast.WithPopulation(100), forecast.WithGenerations(2000),
		forecast.WithMultiRun(2), forecast.WithParallelism(2))
}

func TestGoldenSunspots(t *testing.T) {
	_, train, _, err := series.SunspotsPaper(1)
	if err != nil {
		t.Fatal(err)
	}
	data := func() *forecast.Dataset {
		ds, err := forecast.Window(train, 24, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	lo, hi := data().TargetRange()
	checkGolden(t, goldenSunspots, data, forecast.WithSeed(1), forecast.WithPopulation(100),
		forecast.WithGenerations(1000), forecast.WithEMax(0.2*(hi-lo)))
}

func TestGoldenLorenz(t *testing.T) {
	raw, err := series.Lorenz(series.DefaultLorenz(3000))
	if err != nil {
		t.Fatal(err)
	}
	norm, _ := raw.Normalize()
	train := norm.Slice(0, 2200)
	checkGolden(t, goldenLorenz, func() *forecast.Dataset {
		ds, err := forecast.Window(train, 6, 5)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}, forecast.WithSeed(7), forecast.WithPopulation(100), forecast.WithGenerations(1000))
}

// TestGoldenVeniceStream pins a streaming fit: tombstones, compaction
// and the routed shard's index rebuild on every Append. The single
// index cannot stream, so only the store-backed paths run it.
func TestGoldenVeniceStream(t *testing.T) {
	s, _, err := series.VenicePaper(1800, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	const (
		head   = 1476 // patterns of the first 1,500 hours
		chunk  = 100
		rounds = 3
	)
	checkGoldenPaths(t, goldenPaths[1:], goldenVeniceStream, func(t *testing.T, opts []forecast.Option) string {
		// Two independent windowings, so the store's in-place growth of
		// the fitted dataset can never alias the rows still to come.
		first, err := forecast.Window(s.Slice(0, head+23), 24, 1)
		if err != nil {
			t.Fatal(err)
		}
		all, err := forecast.Window(s, 24, 1)
		if err != nil {
			t.Fatal(err)
		}
		f, err := forecast.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		h := sha256.New()
		for r := 0; r <= rounds; r++ {
			if r == 0 {
				err = f.Fit(context.Background(), first)
			} else {
				lo := head + (r-1)*chunk
				err = f.Append(context.Background(), all.Inputs[lo:lo+chunk], all.Targets[lo:lo+chunk])
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := f.RuleSet().WriteJSON(h); err != nil {
				t.Fatal(err)
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}, forecast.WithSeed(5), forecast.WithPopulation(60), forecast.WithGenerations(300),
		forecast.WithSlidingWindow(1200))
}

// checkGoldenCore pins a core configuration the facade has no option
// for: one execution of cfg over Venice D=24 (goldenVenice24's data),
// through the same three evaluation paths as checkGolden.
func checkGoldenCore(t *testing.T, want string, tweak func(*core.Config, *series.Dataset)) {
	train, _, err := series.VenicePaper(1500, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name    string
		backend func(t *testing.T, ds *series.Dataset) core.Backend
	}{
		{"index", func(*testing.T, *series.Dataset) core.Backend { return nil }},
		{"engine2", func(_ *testing.T, ds *series.Dataset) core.Backend {
			return engine.New(ds, engine.Options{Shards: 2})
		}},
		{"cluster", func(t *testing.T, ds *series.Dataset) core.Backend {
			c, err := remote.Dial(context.Background(), []string{goldenServer(t), goldenServer(t)}, remote.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if err := c.Load(context.Background(), ds); err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			ds, err := series.Window(train, 24, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Default(ds.D)
			cfg.PopSize, cfg.Generations, cfg.Seed = 100, 2000, 3
			tweak(&cfg, ds)
			if b := p.backend(t, ds); b != nil {
				cfg.Runtime.Backend, ds = b, b.Data()
			}
			res, err := core.MultiRun(context.Background(), core.MultiRunConfig{Base: cfg, CoverageTarget: 2, MaxExecutions: 1}, ds)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := res.RuleSet.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("rule-set digest changed:\n got  %s\n want %s", got, want)
			}
		})
	}
}

func TestGoldenVeniceWorst(t *testing.T) {
	checkGoldenCore(t, goldenVeniceWorst, func(c *core.Config, _ *series.Dataset) { c.Replacement = core.ReplaceWorst })
}

func TestGoldenVeniceOverlap(t *testing.T) {
	checkGoldenCore(t, goldenVeniceOverlap, func(c *core.Config, _ *series.Dataset) { c.Distance = core.DistanceOverlap })
}

func TestGoldenVeniceFMin(t *testing.T) {
	checkGoldenCore(t, goldenVeniceFMin, func(c *core.Config, ds *series.Dataset) {
		lo, hi := ds.TargetRange()
		c.EMax = 0.1 * (hi - lo) // the auto-resolved value, made explicit
		c.FMin = 20 * c.EMax
	})
}
