package experiments

import (
	"context"

	"fmt"
	"strings"
	"text/tabwriter"

	"repro/forecast"
	"repro/internal/core"
	"repro/internal/neural"
	"repro/internal/series"
	"repro/internal/stats"
)

// ruleSystemRun trains the evolutionary rule system on train and
// evaluates it on val, returning the accumulated rule set plus the
// validation predictions and coverage mask. emaxFrac sets the paper's
// EMAX as a fraction of the training target span; 0 keeps the core
// default (10%). Noisier domains (sunspots) need a looser EMAX for
// rules to clear the fitness gate — the paper tunes EMAX per domain.
//
// The run goes through the public forecast facade — the same wiring
// every external consumer uses — so the harnesses double as an
// end-to-end check of it. Results are bit-identical to the old direct
// core.MultiRun path: the facade adds no computation, only plumbing.
func ruleSystemRun(ctx context.Context, train, val *series.Dataset, sc Scale, seed int64, emaxFrac float64) (*core.RuleSet, []float64, []bool, error) {
	opts := []forecast.Option{
		forecast.WithPopulation(sc.PopSize),
		forecast.WithGenerations(sc.Generations),
		forecast.WithSeed(seed),
		forecast.WithMultiRun(sc.Executions),
		forecast.WithParallelism(sc.Parallelism),
	}
	if sc.Coverage > 0 && sc.Coverage <= 1 {
		opts = append(opts, forecast.WithCoverageTarget(sc.Coverage))
	} // outside (0,1]: no early-stop target, every execution runs
	switch {
	case len(sc.EngineRemote) > 0:
		// Scatter evaluation across live shard servers.
		opts = append(opts, forecast.WithRemoteCluster(sc.EngineRemote...))
	case sc.Engine:
		opts = append(opts, forecast.WithEngine(0))
	}
	if emaxFrac > 0 {
		lo, hi := train.TargetRange()
		opts = append(opts, forecast.WithEMax(emaxFrac*(hi-lo)))
	} // else EMax stays unset and core resolves it to 10% of the span
	if sc.Telemetry != nil {
		opts = append(opts, forecast.WithTelemetry(sc.Telemetry))
	}
	f, err := forecast.New(opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close() // releases remote-cluster connections; no-op in-process
	if err := f.Fit(ctx, train); err != nil {
		return nil, nil, nil, err
	}
	rs := f.RuleSet()
	// Clamp outputs to the training span (±10%): a linear consequent
	// extrapolating outside the outputs it was fitted on has no
	// empirical support and can poison the mean on rare patterns.
	lo, hi := train.TargetRange()
	margin := 0.1 * (hi - lo)
	rs.SetClamp(lo-margin, hi+margin)
	pred, mask := rs.PredictDataset(val)
	return rs, pred, mask, nil
}

// mlpRun trains the feed-forward baseline with internal min-max
// scaling fitted on the training targets/inputs (tanh nets need
// bounded activations; the Venice series is in raw cm).
func mlpRun(train, val *series.Dataset, epochs int, seed int64) ([]float64, error) {
	inScaler, outScaler := fitScalers(train)
	strain := scaleDataset(train, inScaler, outScaler)
	cfg := neural.DefaultMLP()
	cfg.Epochs = epochs
	cfg.Seed = seed
	m, err := neural.NewMLP(train.D, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := m.Train(strain); err != nil {
		return nil, err
	}
	sval := scaleDataset(val, inScaler, outScaler)
	pred, err := m.PredictDataset(sval)
	if err != nil {
		return nil, err
	}
	for i := range pred {
		pred[i] = outScaler.Inverse(pred[i])
	}
	return pred, nil
}

// elmanRun trains the recurrent baseline with the same scaling scheme.
func elmanRun(train, val *series.Dataset, epochs int, seed int64) ([]float64, error) {
	inScaler, outScaler := fitScalers(train)
	strain := scaleDataset(train, inScaler, outScaler)
	cfg := neural.DefaultElman()
	cfg.Epochs = epochs
	cfg.Seed = seed
	e, err := neural.NewElman(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := e.Train(strain); err != nil {
		return nil, err
	}
	sval := scaleDataset(val, inScaler, outScaler)
	pred, err := e.PredictDataset(sval)
	if err != nil {
		return nil, err
	}
	for i := range pred {
		pred[i] = outScaler.Inverse(pred[i])
	}
	return pred, nil
}

// ranRun trains a RAN (or MRAN when mran is true) baseline. The
// Mackey-Glass data is already in [0,1], matching RAN's default
// thresholds, so no rescaling is applied.
func ranRun(train, val *series.Dataset, passes int, mran bool) ([]float64, error) {
	var (
		net *neural.RAN
		err error
	)
	if mran {
		cfg := neural.DefaultMRAN()
		cfg.RAN.Passes = passes
		net, err = neural.NewMRAN(train.D, cfg)
	} else {
		cfg := neural.DefaultRAN()
		cfg.Passes = passes
		net, err = neural.NewRAN(train.D, cfg)
	}
	if err != nil {
		return nil, err
	}
	if _, err := net.Train(train); err != nil {
		return nil, err
	}
	return net.PredictDataset(val)
}

// fitScalers fits input and output min-max scalers on the training
// patterns only (no validation leakage).
func fitScalers(train *series.Dataset) (in, out *stats.MinMaxScaler) {
	var flat []float64
	for _, row := range train.Inputs {
		flat = append(flat, row...)
	}
	return stats.FitMinMax(flat), stats.FitMinMax(train.Targets)
}

// scaleDataset returns a scaled copy of the dataset.
func scaleDataset(ds *series.Dataset, in, out *stats.MinMaxScaler) *series.Dataset {
	cp := &series.Dataset{
		Inputs:  make([][]float64, ds.Len()),
		Targets: make([]float64, ds.Len()),
		D:       ds.D,
		Horizon: ds.Horizon,
	}
	for i, row := range ds.Inputs {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = in.Transform(v)
		}
		cp.Inputs[i] = r
		cp.Targets[i] = out.Transform(ds.Targets[i])
	}
	return cp
}

// formatRows renders a paper-style table with a header.
func formatRows(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return b.String()
}
