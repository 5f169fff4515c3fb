// Streaming: the facade's lifecycle verbs end to end, as a true
// sliding window. The rule system evolves on a prefix of the
// Mackey-Glass series; the remainder then arrives in chunks. Each
// round first forecasts the incoming chunk (a true out-of-sample,
// prequential test), then calls Append: the chunk's patterns join the
// engine-backed store, the oldest patterns beyond the sliding window
// are evicted, and the system retrains on the window through the same
// engine, whose first match query rebuilds its index once — learning
// the new regime as fast as it forgets the old one.
//
// With -remote host:port,host:port the same loop runs against live
// shardserver processes: appends scatter to the emptiest server,
// window evictions decompose into per-server deletes, and the results
// stay byte-identical to the in-process run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/forecast"
	"repro/internal/metrics"
	"repro/internal/series"
)

const (
	d       = 6 // window width (pattern size)
	horizon = 1
	prefix  = 1800 // samples the system first evolves on
	chunk   = 300  // samples arriving per streaming round
	total   = 3000
)

func main() {
	fl := forecast.RegisterFlags(flag.CommandLine) // -window, -remote
	flag.Parse()

	ctx := context.Background()
	s, err := series.MackeyGlass(series.DefaultMackeyGlass(total))
	if err != nil {
		log.Fatal(err)
	}
	values := s.Values

	ds, err := forecast.Window(series.New("mg/prefix", values[:prefix]), d, horizon)
	if err != nil {
		log.Fatal(err)
	}
	window := fl.Window() // live-pattern cap; default: the training set never outgrows the prefix
	if window <= 0 {
		window = ds.Len()
	}

	opts := []forecast.Option{
		forecast.WithPopulation(40),
		forecast.WithGenerations(2500),
		forecast.WithMultiRun(2),
		forecast.WithCoverageTarget(0.95),
		forecast.WithSeed(1),
	}
	// Distributed or in-process store — only the store option differs;
	// the sliding window setup (and the results) are identical either
	// way. -window overrides the example's default window (the prefix).
	store := forecast.WithEngine(0)
	if fl.Remote() != nil {
		store = forecast.WithRemoteCluster(fl.Remote()...)
	}
	opts = append(opts,
		store,
		forecast.WithSlidingWindow(window),
	)
	f, err := forecast.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := f.Fit(ctx, ds); err != nil {
		log.Fatal(err)
	}
	st, _ := f.StoreStats()
	fmt.Printf("prefix: %d samples → window of %d patterns\n", prefix, st.Live)

	totalEvicted := 0
	for grown, round := prefix, 1; grown < total; round++ {
		next := grown + chunk
		if next > total {
			next = total
		}
		inputs, targets := series.TailPatterns(values[:next], grown, d, horizon)

		// Forecast the incoming chunk before training ever sees it.
		test := &forecast.Dataset{Inputs: inputs, Targets: targets, D: d, Horizon: horizon}
		pred, mask := f.PredictDataset(test)
		rmse, cov, err := metrics.MaskedRMSE(pred, targets, mask)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: forecast %3d new patterns  rmse=%.4f  coverage=%4.1f%%\n",
			round, len(inputs), rmse, 100*cov)

		// Slide the window and retrain in one verb: Append adds the
		// chunk, evicts what the window no longer holds and refits
		// through the same engine. Every cached evaluation from the old
		// window has expired with the epoch (one bump for the append,
		// one for the eviction).
		before, _ := f.StoreStats()
		if err := f.Append(ctx, inputs, targets); err != nil {
			log.Fatal(err)
		}
		st, _ := f.StoreStats()
		evicted := before.Live + len(inputs) - st.Live
		totalEvicted += evicted
		fmt.Printf("round %d: window %d  +%d new  -%d evicted  live=%d  epoch=%d\n",
			round, window, len(inputs), evicted, st.Live, st.Epoch)
		grown = next
	}

	st, _ = f.StoreStats()
	fmt.Printf("done: %d rules over a %d-pattern window (%d patterns evicted in total)\n",
		f.Stats().Rules, st.Live, totalEvicted)
}
