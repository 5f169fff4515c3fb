package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// experimentGoldens pin what every harness prints at Tiny scale and
// seed 42, as a SHA-256 of the text cmd/experiments writes for it
// (Format for tables, Rendered for figures). The other tests here
// check only shapes and sanity ranges, so a change that moves any
// printed number fails only this one. Each harness runs on the default
// path and through the engine, and both must print these bytes.
// WindowedStream always runs an engine.
var experimentGoldens = []struct {
	name string
	run  func(ctx context.Context, sc Scale) (string, error)
	want string
}{
	{"table1", func(ctx context.Context, sc Scale) (string, error) {
		r, err := Table1(ctx, sc, 42, nil)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}, "f4164121a27ddf96fed8846076d8053bae5d45dd4d60ebf4f5a3865de7748c70"},
	{"table2", func(ctx context.Context, sc Scale) (string, error) {
		r, err := Table2(ctx, sc, 42)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}, "675ff11f38ef10dc2b7341f1df87e8d564fb10a52d3a893b520a87dcd7d997ed"},
	{"table3", func(ctx context.Context, sc Scale) (string, error) {
		r, err := Table3(ctx, sc, 42, nil)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}, "9a3d5817cb2f2266ccac9ed774ea51c8d4b2a384813814dda1399d9199ffe056"},
	{"figure1", func(ctx context.Context, sc Scale) (string, error) {
		r, err := Figure1(ctx, sc, 42)
		if err != nil {
			return "", err
		}
		return r.Rendered, nil
	}, "769e651653820c37a1c852e1ec9ece7dc0a136d7549240c9b5eedfc00c8437cf"},
	{"figure2", func(ctx context.Context, sc Scale) (string, error) {
		r, err := Figure2(ctx, sc, 42)
		if err != nil {
			return "", err
		}
		return r.Rendered, nil
	}, "8c84271c34820522eb9faee453af160a9bf1439501bcea9cf6bbaa3e58231097"},
	{"ablations", func(ctx context.Context, sc Scale) (string, error) {
		r, err := Ablations(ctx, sc, 42)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}, "fe59515494f59a1cd1810d5783428509d9a06b752b780cee91bace463e0e8c79"},
	{"generalization", func(ctx context.Context, sc Scale) (string, error) {
		r, err := Generalization(ctx, sc, 42)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}, "f00192bc99326eb2bb23cfff3fa661989cabb0c5acbdafdf30970e66efced252"},
	{"stream", func(ctx context.Context, sc Scale) (string, error) {
		r, err := WindowedStream(ctx, sc, 42)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}, "55841107eb29573d14f0d9c1f571c562ec19f2c45a2218127b3a82d6e47743b2"},
}

func TestExperimentGoldens(t *testing.T) {
	for _, g := range experimentGoldens {
		for _, p := range []struct {
			name   string
			engine bool
		}{{"index", false}, {"engine", true}} {
			t.Run(g.name+"/"+p.name, func(t *testing.T) {
				sc := Tiny()
				sc.Engine = p.engine
				out, err := g.run(context.Background(), sc)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256([]byte(out))
				if got := hex.EncodeToString(sum[:]); got != g.want {
					t.Errorf("digest %s, want %s; output:\n%s", got, g.want, out)
				}
			})
		}
	}
}
