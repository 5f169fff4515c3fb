package remote

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/series"
)

// Loopback benchmarks quantify the wire tax of distribution: the same
// workload shapes as BenchmarkEngineBatch / BenchmarkShardsAppend in
// the repository root, with the engine's 8 shards split across 2
// shard servers of 4 shards each. The delta over the in-process
// numbers is pure protocol cost (encode, frame, pipe copy, decode,
// id remap) — loopback has no network latency, so real deployments
// add their RTT on top. Baselines live in BENCH_engine.json.

func benchDataset(b *testing.B, n, d int) *series.Dataset {
	b.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.3*math.Sin(2*math.Pi*float64(i)/13)
	}
	ds, err := series.Window(series.New("bench", v), d, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// uncachedRules mirrors the root bench helper: signature-unique rule
// clones so every evaluation misses the cache.
func uncachedRules(pop []*core.Rule, n int) []*core.Rule {
	rules := make([]*core.Rule, n)
	for i := range rules {
		r := pop[i%len(pop)].Clone()
		jitter := 1e-12 * float64(i/len(pop)+1)
		for j := range r.Cond {
			if !r.Cond[j].Wildcard {
				r.Cond[j] = core.NewInterval(r.Cond[j].Lo+jitter, r.Cond[j].Hi)
			}
		}
		rules[i] = r
	}
	return rules
}

const remoteBenchBatch = 128

// BenchmarkRemoteBatch measures batched offspring evaluation through
// the wire: one EvaluateAll scheduling pass serves a 128-rule
// generation through a 2-server loopback cluster (4 shards each —
// the same 8 total as BenchmarkEngineBatch). Compare against
// BenchmarkEngineBatch for the protocol overhead.
func BenchmarkRemoteBatch(b *testing.B) {
	ds := benchDataset(b, 10000, 24)
	c, _ := newLoopbackCluster(b, 2, engine.Options{Shards: 4}, Options{})
	if err := c.Load(context.Background(), ds); err != nil {
		b.Fatal(err)
	}
	ev := core.NewEvaluator(c.Data(), 0.2, 0, 1e-8, 0, core.EvalOptions{Backend: c})
	rules := uncachedRules(core.InitStratified(ds, 16), (b.N+1)*remoteBenchBatch)
	// One untimed batch first, as the engine fixture does: the first
	// pass grows the evaluator's and the servers' pooled scratch, which
	// at -benchtime=1x would otherwise be counted as the batch's cost.
	if err := ev.EvaluateAll(context.Background(), rules[b.N*remoteBenchBatch:]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvaluateAll(context.Background(), rules[i*remoteBenchBatch:(i+1)*remoteBenchBatch]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteAppend measures streaming ingestion through the
// wire: one 512-pattern chunk appended to a 20k-pattern 2-server
// cluster (routed whole to the emptier server, which rebuilds one of
// its shard indexes). Compare against BenchmarkShardsAppend.
//
// Run it at a fixed count (-benchtime=20x, as BENCH_engine.json
// records it): every iteration builds and loads a fresh cluster with
// the timer stopped, and that setup costs far more than the timed
// append, so a duration target such as -benchtime=2s grows b.N until
// the untimed setup runs for minutes.
func BenchmarkRemoteAppend(b *testing.B) {
	const n, d, tail = 20000, 24, 512
	v := make([]float64, n+tail+d)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.3*math.Sin(2*math.Pi*float64(i)/13)
	}
	inputs := make([][]float64, 0, tail)
	targets := make([]float64, 0, tail)
	for i := n - d; i+d < len(v); i++ {
		inputs = append(inputs, v[i:i+d])
		targets = append(targets, v[i+d])
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ds, err := series.Window(series.New("bench", v[:n]), d, 1)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := newLoopbackCluster(b, 2, engine.Options{Shards: 4}, Options{})
		if err := c.Load(context.Background(), ds); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.Append(inputs, targets); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
	}
}
