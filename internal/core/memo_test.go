package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/series"
)

// The run loop memoizes regressions by matched set: a child that
// passes the pruning gate with a set the evaluator has already
// regressed takes that result. These tests hold runs with the memo to
// runs without it, with every hash colliding, and across data epochs.

// collide is a memo hash under which every matched set collides.
func collide([]int) uint64 { return 7 }

// TestSetMemoExact steps, for each replacement mode at a fixed seed, an
// execution with the memo, one without it and one whose every matched
// set collides in the memo, in lockstep: after every generation the
// three populations are bit-identical, and so are their Stats and
// final rule sets. The memo must serve hits in both memo runs, and the
// evaluation counters still count one evaluation per rule.
func TestSetMemoExact(t *testing.T) {
	ds := veniceSet(t, 1, 0, 0)
	for _, rk := range []core.ReplacementKind{core.ReplaceNearest, core.ReplaceRandom, core.ReplaceWorst} {
		t.Run(rk.String(), func(t *testing.T) {
			cfg := pruneConfig(pruneCase{data: ds})
			cfg.Replacement = rk
			cfg.Generations = 1000
			ctx := context.Background()
			modes := []struct {
				name string
				hash func([]int) uint64 // nil: memo off; the default otherwise
			}{{"off", nil}, {"on", nil}, {"collide", collide}}
			exs := make([]*core.Execution, len(modes))
			regs := make([]*obs.Registry, len(modes))
			for i := range modes {
				c := cfg
				regs[i] = obs.New()
				c.Runtime.Telemetry = regs[i]
				var err error
				if exs[i], err = core.NewExecution(ctx, c, ds); err != nil {
					t.Fatal(err)
				}
			}
			step := func(i int) bool {
				if modes[i].name == "on" {
					return exs[i].Step(ctx)
				}
				defer core.SetMemoHash(modes[i].hash)()
				return exs[i].Step(ctx)
			}
			for g := 1; g <= cfg.Generations; g++ {
				want := step(0)
				for i := 1; i < len(modes); i++ {
					if got := step(i); got != want {
						t.Fatalf("generation %d: replaced %v with the memo %s, %v with it off", g, got, modes[i].name, want)
					}
					for k := range exs[0].Pop {
						if !sameRule(exs[i].Pop[k], exs[0].Pop[k]) {
							t.Fatalf("generation %d: rule %d differs with the memo %s:\n%+v\noff:\n%+v",
								g, k, modes[i].name, exs[i].Pop[k], exs[0].Pop[k])
						}
					}
				}
			}
			count := func(i int, name string) uint64 { v, _ := regs[i].Snapshot()[name].(uint64); return v }
			want := ruleSetDigest(t, exs[0])
			for i, m := range modes {
				if i > 0 && exs[i].Stats != exs[0].Stats {
					t.Fatalf("stats %+v with the memo %s, %+v with it off", exs[i].Stats, m.name, exs[0].Stats)
				}
				if got := ruleSetDigest(t, exs[i]); got != want {
					t.Fatalf("rule set %s with the memo %s, %s with it off", got, m.name, want)
				}
				hits := count(i, "core_evals_set_hits")
				if m.name == "off" && hits != 0 || m.name != "off" && hits == 0 {
					t.Fatalf("memo %s: %d matched-set hits", m.name, hits)
				}
				computed, cached, pruned := count(i, "core_evals_computed"), count(i, "core_evals_cached"), count(i, "core_evals_pruned")
				if total := uint64(cfg.PopSize + cfg.Generations); computed+cached+pruned != total {
					t.Fatalf("memo %s: evaluations computed %d + cached %d + pruned %d, want %d", m.name, computed, cached, pruned, total)
				}
				t.Logf("memo %s: %d computed, %d cached (%d matched-set hits), %d pruned", m.name, computed, cached, hits, pruned)
			}
		})
	}
}

// ruleSetDigest is the digest of the rule set ex's valid rules make.
func ruleSetDigest(t *testing.T, ex *core.Execution) string {
	rs := core.NewRuleSet(ex.Config.D)
	rs.Add(ex.ValidRules()...)
	return digestRules(t, rs)
}

// epochIndex is a MatchIndex whose data epoch the test moves by hand.
type epochIndex struct {
	*core.MatchIndex
	epoch uint64
}

func (b *epochIndex) Epoch() uint64 { return b.epoch }

// memoPair returns two rules with different genes and one matched set
// over ds: lag 0 within [lo, hi], and the same with lag 1 bounded by
// the data's own range on that lag.
func memoPair(ds *series.Dataset, lo, hi float64) (a, b *core.Rule) {
	cond := make([]core.Interval, ds.D)
	for j := range cond {
		cond[j] = core.Wild()
	}
	cond[0] = core.NewInterval(lo, hi)
	a = &core.Rule{Cond: cond}
	b = a.Clone()
	l1lo, l1hi := math.Inf(1), math.Inf(-1)
	for _, row := range ds.Inputs {
		l1lo, l1hi = min(l1lo, row[1]), max(l1hi, row[1])
	}
	b.Cond[1] = core.NewInterval(l1lo, l1hi)
	return a, b
}

// TestSetMemoEpoch checks that the memo never serves an entry across
// a data epoch, with every hash colliding so that any entry left over
// would be looked at. Over an index whose epoch the test moves after
// rewriting every target in place, a second rule with the first one's
// matched set is regressed afresh, on the new targets. Over the engine,
// an Append moves the epoch and grows the bitmaps: the second rule is
// again regressed, and the first, drawn once more at the new epoch,
// then hits.
func TestSetMemoEpoch(t *testing.T) {
	defer core.SetMemoHash(collide)()
	ctx := context.Background()
	lo, hi := 0.0, 1.0
	check := func(t *testing.T, ds *series.Dataset, b core.Backend, mutate func(), wantHits uint64) {
		reg := obs.New()
		ev := core.NewEvaluator(ds, 1, 0, 1e-8, 1, core.EvalOptions{Backend: b, Telemetry: reg})
		hits := func() uint64 { v, _ := reg.Snapshot()["core_evals_set_hits"].(uint64); return v }
		x, y := memoPair(ds, lo, hi)
		if ev.EvaluateInLoop(ctx, x); x.Matches < 2 {
			t.Fatalf("the rule matches %d rows: nothing to regress", x.Matches)
		}
		if ev.EvaluateInLoop(ctx, y); hits() != 1 || !sameRule(withCond(y, x), x) {
			t.Fatalf("the same matched set under other genes: %d hits, %+v against %+v", hits(), y, x)
		}
		mutate()
		x2, y2 := memoPair(ds, lo, hi)
		y2.Cond[2] = y2.Cond[1] // a signature not cached yet
		ev.EvaluateInLoop(ctx, y2)
		fresh := y2.Clone()
		core.NewEvaluator(ds, 1, 0, 1e-8, 1, core.EvalOptions{}).Evaluate(ctx, fresh)
		if !sameRule(y2, fresh) {
			t.Fatalf("after the epoch moved, the memo served %+v; a fresh evaluator gives %+v", y2, fresh)
		}
		x2.Cond[3] = x2.Cond[1]
		ev.EvaluateInLoop(ctx, x2)
		if hits() != wantHits {
			t.Fatalf("%d matched-set hits, want %d", hits(), wantHits)
		}
	}
	t.Run("rewrite", func(t *testing.T) {
		ds := veniceSet(t, 1, 0, 0)
		lo, hi = ds.Inputs[0][0]-0.1, ds.Inputs[0][0]+0.1
		b := &epochIndex{MatchIndex: core.NewMatchIndex(ds)}
		check(t, ds, b, func() {
			for i := range ds.Targets {
				ds.Targets[i] = 2*ds.Targets[i] + 1
			}
			b.epoch++
		}, 2)
	})
	t.Run("append", func(t *testing.T) {
		ds := veniceSet(t, 1, 0, 0)
		lo, hi = ds.Inputs[0][0]-0.1, ds.Inputs[0][0]+0.1
		eng := engine.New(ds, engine.Options{Shards: 2})
		more := veniceSet(t, 1, 0, 0)
		check(t, ds, eng, func() {
			if err := eng.Append(more.Inputs[:70], more.Targets[:70]); err != nil {
				t.Fatal(err)
			}
		}, 2)
	})
}

// withCond returns a copy of r carrying like's genes, so two rules
// that differ only in their genes compare equal under sameRule.
func withCond(r, like *core.Rule) *core.Rule {
	c := r.Clone()
	c.Cond = like.Clone().Cond
	return c
}
