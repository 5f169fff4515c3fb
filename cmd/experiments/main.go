// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -table 1            # Table 1 (Venice) at quick scale
//	experiments -table 2 -full      # Table 2 (Mackey-Glass) at paper scale
//	experiments -table 3
//	experiments -figure 1           # rule diagram
//	experiments -figure 2           # unusual-tide trace
//	experiments -ablations          # design-choice ablations
//	experiments -all                # Tables 1-3, Figures 1-2 and the ablations
//	experiments -generalization     # the rule system on the Lorenz attractor
//	experiments -stream             # windowed-stream lifecycle scenario
//
// The -full flag switches from the quick (laptop) scale to the
// paper's full protocol (45k-point Venice training, 75k generations);
// expect hours at full scale. -tiny selects the unit-test scale.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"

	"repro/forecast"
	"repro/internal/experiments"
)

func main() {
	var (
		table     = flag.Int("table", 0, "table to regenerate (1, 2 or 3)")
		figure    = flag.Int("figure", 0, "figure to regenerate (1 or 2)")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations")
		general   = flag.Bool("generalization", false, "run the Lorenz generalization check")
		stream    = flag.Bool("stream", false, "run the windowed-stream lifecycle scenario (append + sliding window)")
		all       = flag.Bool("all", false, "regenerate every table and figure, and the ablations")
		full      = flag.Bool("full", false, "use the paper's full-scale protocol")
		tiny      = flag.Bool("tiny", false, "use the unit-test scale (fast smoke run)")
		seed      = flag.Int64("seed", 42, "base RNG seed")
	)
	ef := forecast.RegisterFlags(flag.CommandLine)     // -shards, -window, -remote
	ofl := forecast.RegisterObsFlags(flag.CommandLine) // -debug-addr, -trace
	flag.Parse()

	sc := experiments.Quick()
	if *full {
		sc = experiments.Paper()
	}
	if *tiny {
		sc = experiments.Tiny()
	}
	if ef.Enabled() {
		// Route every rule evaluation through the sharded engine (or,
		// with -remote, a cluster of shard servers); bit-identical to
		// the single-index path at any shard count, window or number
		// of shard servers.
		sc.EngineShards = ef.Shards()
		if sc.EngineShards == 0 {
			sc.EngineShards = runtime.GOMAXPROCS(0)
		}
		sc.EngineWindow = ef.Window()
		sc.EngineRemote = ef.Remote()
		if sc.EngineRemote != nil {
			fmt.Fprintln(os.Stderr, "note: -remote drives the facade-based experiments (tables, figures, generalization); the ablations and -stream stay in-process")
		}
	}

	// Telemetry parity with tsforecast/shardserver: live /metrics,
	// /healthz, /debug/vars and /debug/pprof on -debug-addr, JSONL
	// events and trace spans on -trace, attached to every facade-driven
	// experiment run.
	reg, stopObs, err := ofl.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopObs()
	sc.Telemetry = reg

	if ef.Window() > 0 && !*stream {
		fmt.Fprintln(os.Stderr, "note: -window only applies to the windowed-stream scenario (-stream); the selected experiments train on their full dataset")
	}

	if !*all && *table == 0 && *figure == 0 && !*ablations && !*general && !*stream {
		flag.Usage()
		os.Exit(2)
	}

	// Ctrl-C cancels the in-flight experiment at its next generation —
	// the paper's full protocol runs for hours, and every harness is
	// context-aware end to end.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *all || *table == 1 {
		res, err := experiments.Table1(ctx, sc, *seed, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Format())
	}
	if *all || *table == 2 {
		res, err := experiments.Table2(ctx, sc, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Format())
	}
	if *all || *table == 3 {
		res, err := experiments.Table3(ctx, sc, *seed, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Format())
	}
	if *all || *figure == 1 {
		res, err := experiments.Figure1(ctx, sc, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println("Figure 1 — graphical representation of an evolved rule")
		fmt.Println(res.Rendered)
	}
	if *all || *figure == 2 {
		res, err := experiments.Figure2(ctx, sc, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Rendered)
	}
	if *all || *ablations {
		res, err := experiments.Ablations(ctx, sc, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Format())
	}
	if *general {
		res, err := experiments.Generalization(ctx, sc, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Format())
	}
	if *stream {
		res, err := experiments.WindowedStream(ctx, sc, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Format())
	}
}
