// Command tsforecast is the end-user CLI of the evolutionary rule
// forecasting system:
//
//	tsforecast generate -kind venice -n 5000 -out series.csv
//	tsforecast train -in series.csv -d 24 -horizon 1 -out rules.json
//	tsforecast predict -in series.csv -rules rules.json
//	tsforecast eval -in series.csv -rules rules.json -metric rmse
//
// generate synthesizes one of the three workload series; train evolves
// a rule set on a CSV series through the public forecast facade (and
// can be interrupted with Ctrl-C, saving the best-so-far system);
// predict prints per-pattern predictions (with abstentions marked);
// eval scores a rule set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/forecast"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/series"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "train":
		err = cmdTrain(context.Background(), os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "forecast":
		err = cmdForecast(os.Args[2:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tsforecast: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsforecast:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tsforecast <command> [flags]

commands:
  generate  synthesize a workload series (venice | mackeyglass | sunspots)
  train     evolve a rule set on a CSV series
  predict   print predictions (and abstentions) for a CSV series
  eval      score a trained rule set against a CSV series
  analyze   report rule-set structure (coverage sharing, diversity)
  forecast  roll a horizon-1 rule set forward from the series' end
  help      show this message`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kind := fs.String("kind", "venice", "series kind: venice | mackeyglass | sunspots")
	n := fs.Int("n", 5000, "number of samples")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		s   *series.Series
		err error
	)
	switch *kind {
	case "venice":
		s, err = series.Venice(series.DefaultVenice(*n, *seed))
	case "mackeyglass":
		s, err = series.MackeyGlass(series.DefaultMackeyGlass(*n))
	case "sunspots":
		s, err = series.Sunspots(series.DefaultSunspots(*n, *seed))
	default:
		return fmt.Errorf("unknown series kind %q", *kind)
	}
	if err != nil {
		return err
	}
	if *out == "" {
		return series.WriteCSV(os.Stdout, s)
	}
	if err := series.SaveCSV(*out, s); err != nil {
		return err
	}
	fmt.Printf("wrote %d samples of %s to %s (%s)\n", s.Len(), s.Name, *out, s.Summary())
	return nil
}

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	in := fs.String("in", "", "input CSV series (required)")
	d := fs.Int("d", 24, "window width D")
	horizon := fs.Int("horizon", 1, "prediction horizon τ")
	pop := fs.Int("pop", 100, "population size")
	gens := fs.Int("generations", 20000, "steady-state generations per execution")
	execs := fs.Int("executions", 3, "max executions to accumulate")
	coverage := fs.Float64("coverage", 0.98, "training coverage target")
	emax := fs.Float64("emax", 0, "EMAX (0 = 10% of target range)")
	seed := fs.Int64("seed", 1, "RNG seed")
	fl := forecast.RegisterFlags(fs) // -window, -remote
	out := fs.String("out", "rules.json", "output rule-set path")
	ofl := forecast.RegisterObsFlags(fs) // -debug-addr, -trace
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("train: -in is required")
	}
	ds, err := forecast.LoadCSV(*in, *d, *horizon)
	if err != nil {
		return err
	}

	opts := []forecast.Option{
		forecast.WithHorizon(*horizon),
		forecast.WithPopulation(*pop),
		forecast.WithGenerations(*gens),
		forecast.WithMultiRun(*execs),
		forecast.WithSeed(*seed),
	}
	if *coverage > 0 && *coverage <= 1 {
		opts = append(opts, forecast.WithCoverageTarget(*coverage))
	} // outside (0,1]: run every execution (no early stop)
	if *emax > 0 {
		opts = append(opts, forecast.WithEMax(*emax))
	}
	// The engine or a shard-server cluster (empty when no engine flag
	// was passed). Results are bit-identical to the single-index path
	// over the same rows.
	opts = append(opts, fl.Options()...)
	// Telemetry: batch latencies, cache counters, fit trace spans and
	// the best-of-run trajectory, live on -debug-addr and/or traced to
	// -trace.
	reg, stopObs, err := ofl.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer stopObs()
	if reg != nil {
		opts = append(opts, forecast.WithTelemetry(reg))
	}
	f, err := forecast.New(opts...)
	if err != nil {
		return err
	}

	// Ctrl-C cancels the evolution at its next generation; the
	// best-so-far system is still saved.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	loaded := ds.Len() // Fit hands the dataset to the engine, which trims it in place
	fitErr := f.Fit(ctx, ds)
	if fitErr != nil && !errors.Is(fitErr, context.Canceled) {
		return fitErr
	}
	if st, ok := f.StoreStats(); ok && loaded > st.Live {
		fmt.Printf("window %d: evicted %d older patterns, training on %d live\n",
			st.Live, loaded-st.Live, st.Live)
	}
	if !f.Fitted() {
		// Cancelled before any execution produced rules: nothing to save.
		fmt.Println("interrupted before any execution completed; nothing saved")
		return nil
	}
	if err := f.RuleSet().Save(*out); err != nil {
		return err
	}
	stats := f.Stats()
	if errors.Is(fitErr, context.Canceled) {
		fmt.Printf("interrupted: saved best-so-far system (%d rules over %d executions) to %s\n",
			stats.Rules, stats.Executions, *out)
		return nil
	}
	fmt.Printf("trained %d rules over %d executions; training coverage %.1f%%; saved to %s\n",
		stats.Rules, stats.Executions, 100*stats.Coverage, *out)
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	in := fs.String("in", "", "input CSV series (required)")
	rulesPath := fs.String("rules", "rules.json", "trained rule-set path")
	horizon := fs.Int("horizon", 1, "prediction horizon τ")
	limit := fs.Int("limit", 0, "print at most this many predictions (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("predict: -in is required")
	}
	rs, err := forecast.LoadRuleSet(*rulesPath)
	if err != nil {
		return err
	}
	ds, err := forecast.LoadCSV(*in, rs.D, *horizon)
	if err != nil {
		return err
	}
	pred, mask := rs.PredictDataset(ds)
	n := ds.Len()
	if *limit > 0 && *limit < n {
		n = *limit
	}
	fmt.Println("t,prediction,covered,target")
	for i := 0; i < n; i++ {
		covered := "yes"
		val := fmt.Sprintf("%.6g", pred[i])
		if !mask[i] {
			covered = "no"
			val = ""
		}
		fmt.Printf("%d,%s,%s,%.6g\n", i, val, covered, ds.Targets[i])
	}
	return nil
}

func cmdForecast(args []string) error {
	fs := flag.NewFlagSet("forecast", flag.ExitOnError)
	in := fs.String("in", "", "input CSV series (required)")
	rulesPath := fs.String("rules", "rules.json", "trained horizon-1 rule-set path")
	steps := fs.Int("steps", 24, "steps to forecast past the series' end")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("forecast: -in is required")
	}
	s, err := series.LoadCSV(*in)
	if err != nil {
		return err
	}
	rs, err := forecast.LoadRuleSet(*rulesPath)
	if err != nil {
		return err
	}
	if s.Len() < rs.D {
		return fmt.Errorf("forecast: series has %d values, rule set needs %d", s.Len(), rs.D)
	}
	traj, done := rs.IteratedForecast(s.Values, *steps)
	fmt.Println("step,prediction")
	for i, v := range traj {
		fmt.Printf("%d,%.6g\n", i+1, v)
	}
	if done < *steps {
		fmt.Printf("# abstained after %d of %d steps (forecast left every rule's region)\n", done, *steps)
	}
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "", "input CSV series (required)")
	rulesPath := fs.String("rules", "rules.json", "trained rule-set path")
	horizon := fs.Int("horizon", 1, "prediction horizon τ")
	top := fs.Int("top", 3, "render the top-N rules as diagrams")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("analyze: -in is required")
	}
	rs, err := forecast.LoadRuleSet(*rulesPath)
	if err != nil {
		return err
	}
	ds, err := forecast.LoadCSV(*in, rs.D, *horizon)
	if err != nil {
		return err
	}
	fmt.Print(rs.Analyze(ds).String())
	fmt.Printf("mean pairwise rule distance: %.2f\n\n", rs.MeanPairwiseDistance())
	rs.SortByFitness()
	n := *top
	if n > rs.Len() {
		n = rs.Len()
	}
	for i := 0; i < n; i++ {
		fmt.Printf("--- rule %d (fitness %.4g, matches %d) ---\n", i+1,
			rs.Rules[i].Fitness, rs.Rules[i].Matches)
		fmt.Print(plot.RenderRule(rs.Rules[i], 12))
	}
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	in := fs.String("in", "", "input CSV series (required)")
	rulesPath := fs.String("rules", "rules.json", "trained rule-set path")
	horizon := fs.Int("horizon", 1, "prediction horizon τ")
	metric := fs.String("metric", "rmse", "error metric: rmse | nmse | mae | galvan")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("eval: -in is required")
	}
	rs, err := forecast.LoadRuleSet(*rulesPath)
	if err != nil {
		return err
	}
	ds, err := forecast.LoadCSV(*in, rs.D, *horizon)
	if err != nil {
		return err
	}
	pred, mask := rs.PredictDataset(ds)
	p, w, err := metrics.Compact(pred, ds.Targets, mask)
	if err != nil {
		return err
	}
	cov := metrics.Coverage(mask)
	var score float64
	switch strings.ToLower(*metric) {
	case "rmse":
		score, err = metrics.RMSE(p, w)
	case "nmse":
		score, err = metrics.NMSE(p, w)
	case "mae":
		score, err = metrics.MAE(p, w)
	case "galvan":
		score, err = metrics.GalvanError(p, w, *horizon)
	default:
		return fmt.Errorf("unknown metric %q", *metric)
	}
	if err != nil {
		return err
	}
	fmt.Printf("rules=%d patterns=%d coverage=%.1f%% %s=%.6g\n",
		rs.Len(), ds.Len(), 100*cov, strings.ToLower(*metric), score)
	return nil
}
