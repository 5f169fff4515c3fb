package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/forecast"
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
)

// goldenPaths are the evaluation paths every golden fit runs through:
// the evaluator's own single index, and the sharded engine.
var goldenPaths = []struct {
	name string
	opts []forecast.Option
}{
	{"index", nil},
	{"engine2", []forecast.Option{forecast.WithEngine(2)}},
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
	for _, p := range goldenPaths {
		t.Run(p.name, func(t *testing.T) {
			opts := append(append([]forecast.Option(nil), base...), p.opts...)
			if got := goldenDigest(t, data(), opts...); got != want {
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
