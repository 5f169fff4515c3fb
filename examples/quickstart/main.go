// Quickstart: evolve local prediction rules on the Mackey-Glass
// series, inspect a rule, and forecast held-out data — the minimal
// end-to-end tour of the public forecast API.
//
// The engine flags ride along: `quickstart -shards 8` trains through
// the in-process sharded engine, and `quickstart -remote
// host0:7070,host1:7071` scatters evaluation across shardserver
// processes — the output is byte-identical in every case, which the
// CI smoke job exploits by diffing a local run against a distributed
// one.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/forecast"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/series"
)

func main() {
	fl := forecast.RegisterFlags(flag.CommandLine) // -shards, -window, -remote
	flag.Parse()
	// 1. A workload: the Mackey-Glass chaotic series, normalized to
	//    [0,1], split 1000 train / 500 test as in the paper.
	trainSeries, testSeries, err := series.MackeyGlassPaper()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Windowed patterns: 4 inputs spaced 6 steps apart, horizon 50.
	train, err := forecast.Embed(trainSeries, 4, 6, 50)
	if err != nil {
		log.Fatal(err)
	}
	test, err := forecast.Embed(testSeries, 4, 6, 50)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Evolve: Michigan rule population, steady-state with crowding,
	//    accumulated over executions until 95% training coverage.
	opts := []forecast.Option{
		forecast.WithPopulation(50),
		forecast.WithGenerations(4000),
		forecast.WithMultiRun(3),
		forecast.WithCoverageTarget(0.95),
		forecast.WithSeed(7),
	}
	opts = append(opts, fl.Options()...) // engine or remote cluster: same results, more capacity
	f, err := forecast.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := f.Fit(context.Background(), train); err != nil {
		log.Fatal(err)
	}
	stats := f.Stats()
	fmt.Printf("evolved %d rules in %d execution(s); training coverage %.1f%%\n",
		stats.Rules, stats.Executions, 100*stats.Coverage)

	// 4. Inspect the fittest rule (the paper's Figure 1 diagram).
	rs := f.RuleSet()
	rs.SortByFitness()
	fmt.Println("\nfittest rule:")
	fmt.Print(plot.RenderRule(rs.Rules[0], 12))

	// 5. Forecast the held-out segment; the system abstains where no
	//    rule matches (the paper's "percentage of prediction").
	pred, mask := f.PredictDataset(test)
	nmse, coverage, err := metrics.MaskedNMSE(pred, test.Targets, mask)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntest NMSE %.4f over %.1f%% of patterns (abstained on the rest)\n",
		nmse, 100*coverage)
}
