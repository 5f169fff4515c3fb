// Package forecast is the public, context-aware facade over the
// evolutionary rule forecasting system reproduced from Arco, Calderón
// et al. (IPPS/IPDPS 2007).
//
// A Forecaster is built once with functional options and then driven
// through four verbs:
//
//	f, _ := forecast.New(
//		forecast.WithMultiRun(3),
//		forecast.WithCoverageTarget(0.95),
//		forecast.WithEngine(0),       // sharded evaluation, one shard per core
//	)
//	err := f.Fit(ctx, train)          // evolve a rule system (cancellable)
//	v, ok := f.Predict(pattern)       // forecast one pattern (ok=false: abstain)
//	err = f.Append(ctx, in, tg)       // stream new data in and retrain
//	n := f.Evict(100)                 // expire the oldest 100 patterns
//
// Every long-running call takes a context.Context and honours
// cancellation promptly: a cancelled Fit returns ctx.Err() with the
// best-so-far rule system installed, so the Forecaster remains usable.
//
// All speed machinery — worker counts, sharding, batching — is
// configured through options and guaranteed not to change results:
// for a fixed seed the fitted system is bit-identical at any
// parallelism or shard count. Only the hyperparameter options (generations,
// population, EMax, topology) affect what is learned.
package forecast

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/series"
)

// Series, Dataset and RuleSet are the facade's data vocabulary. They
// alias the internal implementations so values flow freely between
// the facade and the lower layers it subsumes.
type (
	// Series is an ordered sequence of observations of one variable.
	Series = series.Series
	// Dataset is the windowed view of a series: D consecutive inputs
	// per pattern plus the horizon-τ target.
	Dataset = series.Dataset
	// RuleSet is a fitted rule system: the accumulated population used
	// as a forecaster that may abstain on patterns no rule covers.
	RuleSet = core.RuleSet
)

// Progress is a point-in-time snapshot delivered to WithProgress
// callbacks.
type Progress struct {
	Execution    int     // execution (multi-run) or island index
	Generation   int     // steady-state generations performed so far
	BestFitness  float64 // best fitness in the population
	MeanFitness  float64 // mean fitness in the population
	Replacements int     // cumulative offspring accepted
}

// FitStats summarizes the last (re)fit.
type FitStats struct {
	Executions  int     // executions or islands that contributed rules
	Generations int     // total steady-state generations spent
	Coverage    float64 // training coverage of the merged system (multi-run)
	Migrations  int     // ring migrations performed (islands)
	BestFitness float64 // best end-of-run fitness across executions
	Rules       int     // rules in the fitted system
}

// StoreStats is a snapshot of the engine-backed training store.
type StoreStats struct {
	Live    int    // live training patterns
	Shards  int    // current shard count
	MinLive int    // smallest live shard
	MaxLive int    // largest live shard
	Epoch   uint64 // data epoch (bumped by every mutation)
}

// ErrData wraps training-data failures reported by Fit (empty
// dataset, a sliding window that leaves nothing to train on) so
// facade consumers can errors.Is-match them without reaching into
// internal packages.
var ErrData = errors.New("forecast: invalid training data")

// ErrNotFitted is returned by methods that need a trained system
// before Fit has succeeded (or been cancelled past its first wave).
var ErrNotFitted = errors.New("forecast: Fit has not produced a rule system yet")

// ErrNoEngine is returned by the streaming methods (Append, Evict)
// when the Forecaster was built without WithEngine.
var ErrNoEngine = errors.New("forecast: streaming requires WithEngine (or WithSlidingWindow)")

// ErrRemote marks every remote-cluster transport failure: dial
// errors, dropped or timed-out shard-server connections, protocol
// violations. Fit and Append over a WithRemoteCluster Forecaster wrap
// it (via errors.Is) when a server is lost — the run aborts loudly
// instead of hanging or training against incomplete matched sets.
var ErrRemote error = remote.ErrTransport

// store is what Fit installs behind the facade: the core lifecycle
// contract plus the observability hooks StoreStats renders. Both the
// in-process engine and the remote scatter/gather cluster satisfy it.
type store interface {
	core.Store
	P() int
	LiveSpread() (lo, hi int)
	Instrument(*obs.Registry)
}

// closeStore releases a store's external resources (a remote
// cluster's connections); in-process engines hold none.
func closeStore(st store) {
	if c, ok := st.(io.Closer); ok {
		c.Close()
	}
}

// Forecaster is the facade over the evolutionary engine. Build it
// with New, train it with Fit, and use it as a predictor; with
// WithEngine it also manages the training data's lifecycle (streaming
// appends, sliding windows, eviction).
//
// A Forecaster is not safe for concurrent mutation: Fit, Append and
// Evict must not overlap. The prediction methods are safe to call
// concurrently with each other once fitted.
type Forecaster struct {
	s    settings
	data *Dataset
	eng  store
	rs   *RuleSet
	fit  FitStats
}

// New builds a Forecaster from the given options. Option values are
// validated eagerly — contradictory combinations fail here, not at
// Fit time.
func New(opts ...Option) (*Forecaster, error) {
	f := &Forecaster{}
	for _, opt := range opts {
		if err := opt(&f.s); err != nil {
			return nil, err
		}
	}
	if err := f.s.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Fit evolves a rule system on the dataset, replacing any previously
// fitted one. With WithEngine the dataset's lifecycle is taken over
// by the engine from here on: Append and Evict mutate it,
// WithSlidingWindow trims it to the newest n patterns immediately,
// and every eviction rewrites it IN PLACE — callers must treat the
// passed dataset as moved and read the live view through Data()
// instead.
//
// Fit honours ctx: cancellation stops every execution at its next
// generation, installs the best-so-far system (every completed
// execution's rules plus whatever the in-flight ones had evolved) and
// returns ctx.Err(). Configuration and data errors leave the previous
// fit untouched.
func (f *Forecaster) Fit(ctx context.Context, ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return fmt.Errorf("%w: Fit needs a non-empty dataset", ErrData)
	}
	if f.s.horizon != 0 && f.s.horizon != ds.Horizon {
		return fmt.Errorf("%w: WithHorizon(%d) does not match the dataset's horizon %d",
			ErrOption, f.s.horizon, ds.Horizon)
	}
	// The fit's root trace span, opened before the store is built so
	// the remote branch's dial, scatter and epoch RPCs already run
	// under it — the whole fit then stitches into one tree across the
	// client's and every shardserver's trace file (tools/traceview).
	ctx, span := f.fitSpan(ctx)
	defer span.End()
	data := ds
	var st store
	switch {
	case len(f.s.remote) > 0:
		// Every Fit dials a fresh cluster and scatters the dataset —
		// the distributed mirror of building a fresh engine below.
		// The previous fit's cluster (if any) points at the very
		// servers this Load is about to overwrite: retire it first,
		// so even a failed new fit cannot leave streaming verbs
		// silently remapping the new server data onto the old view —
		// they fail loudly with ErrRemote instead.
		if old, ok := f.eng.(*remote.Cluster); ok {
			old.Retire()
		}
		cl, err := remote.Dial(ctx, f.s.remote, remote.Options{})
		if err != nil {
			return fmt.Errorf("forecast: remote cluster: %w", err)
		}
		// Instrument before Load so the scatter itself is observed —
		// per-verb RPC metrics and, when tracing, rpc.reset spans
		// under the fit root.
		if f.s.telemetry != nil {
			cl.Instrument(f.s.telemetry)
		}
		if err := cl.Load(ctx, ds); err != nil {
			cl.Close()
			return fmt.Errorf("forecast: remote cluster: %w", err)
		}
		st = cl
	case f.s.engine:
		st = engine.New(ds, engine.Options{Shards: f.s.shards})
		if f.s.telemetry != nil {
			st.Instrument(f.s.telemetry)
		}
	}
	if st != nil {
		if f.s.slidingWin > 0 {
			st.Window(f.s.slidingWin)
		}
		data = st.Data()
		if data.Len() == 0 {
			closeStore(st)
			return fmt.Errorf("%w: sliding window left no training patterns", ErrData)
		}
	}
	f.trace("fit_start", map[string]any{"rows": data.Len(), "d": data.D, "horizon": data.Horizon})
	rs, stats, err := f.train(ctx, data, st)
	if rs == nil || (err != nil && stats.Executions == 0) {
		// Config/data/transport error, or cancelled before any
		// execution ran: there is no best-so-far to install, keep the
		// previous fit.
		if st != nil {
			closeStore(st)
		}
		return err
	}
	if f.eng != nil && f.eng != st {
		closeStore(f.eng) // the previous fit's cluster, if any
	}
	f.data, f.eng, f.rs, f.fit = data, st, rs, stats
	f.trace("fit_done", map[string]any{
		"executions":   stats.Executions,
		"generations":  stats.Generations,
		"coverage":     stats.Coverage,
		"rules":        stats.Rules,
		"best_fitness": stats.BestFitness,
	})
	return err // nil, or ctx.Err() with the best-so-far system installed
}

// Close releases the resources the training store holds outside the
// process — a remote cluster's server connections. In-process
// Forecasters hold none and Close is a no-op. The fitted system keeps
// predicting after Close; only the streaming verbs need the store.
func (f *Forecaster) Close() error {
	if c, ok := f.eng.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// config assembles the core hyperparameter configuration for the
// current settings and dataset.
func (f *Forecaster) config(data *Dataset, eng store) core.Config {
	cfg := core.Default(data.D)
	cfg.Horizon = data.Horizon
	if f.s.popSize > 0 {
		cfg.PopSize = f.s.popSize
	}
	if f.s.generations > 0 {
		cfg.Generations = f.s.generations
	}
	if f.s.emax > 0 {
		cfg.EMax = f.s.emax
	}
	if f.s.seedSet {
		cfg.Seed = f.s.seed
	}
	cfg.Runtime.Telemetry = f.s.telemetry
	if eng != nil {
		cfg.Runtime.Backend = eng
	}
	return cfg
}

// train runs the configured topology (multi-run accumulation or
// islands) and reduces the outcome to a rule set plus statistics. A
// nil rule set means nothing trained (configuration error); a non-nil
// rule set with a non-nil error is a cancelled run's best-so-far.
func (f *Forecaster) train(ctx context.Context, data *Dataset, eng store) (*RuleSet, FitStats, error) {
	cfg := f.config(data, eng)
	if isl := f.s.islands; isl != nil {
		res, err := core.RunIslands(ctx, core.IslandConfig{
			Base:              cfg,
			Islands:           isl.islands,
			MigrationInterval: isl.migrationInterval,
			Migrants:          isl.migrants,
			Parallelism:       f.s.parallelism,
			OnProgress:        f.progressHook(),
		}, data)
		if res == nil {
			return nil, FitStats{}, err
		}
		stats := FitStats{
			Executions: len(res.PerIsland),
			Migrations: res.Migrations,
			Rules:      res.RuleSet.Len(),
			Coverage:   res.RuleSet.Coverage(data),
		}
		for _, st := range res.PerIsland {
			stats.Generations += st.Generations
			if st.BestFitness > stats.BestFitness {
				stats.BestFitness = st.BestFitness
			}
		}
		return res.RuleSet, stats, err
	}

	k := f.s.multiRun
	if k == 0 {
		k = 1
	}
	target := f.s.coverageTarget
	if target == 0 {
		target = 2 // >1 disables early stopping: run all k executions
	}
	res, err := core.MultiRun(ctx, core.MultiRunConfig{
		Base:           cfg,
		CoverageTarget: target,
		MaxExecutions:  k,
		Parallelism:    f.s.parallelism,
		OnProgress:     f.progressHook(),
		ProgressEvery:  f.s.progressEvery,
	}, data)
	if res == nil {
		return nil, FitStats{}, err
	}
	stats := FitStats{
		Executions: len(res.Executions),
		Coverage:   res.Coverage,
		Rules:      res.RuleSet.Len(),
	}
	for _, st := range res.Executions {
		stats.Generations += st.Generations
		if st.BestFitness > stats.BestFitness {
			stats.BestFitness = st.BestFitness
		}
	}
	return res.RuleSet, stats, err
}

// progressHook adapts the WithProgress callback to the core's
// (index, snapshot) hooks; nil when no callback is registered.
func (f *Forecaster) progressHook() func(int, core.Progress) bool {
	fn := f.s.progress
	if fn == nil {
		return nil
	}
	return func(i int, p core.Progress) bool {
		return fn(Progress{
			Execution:    i,
			Generation:   p.Generation,
			BestFitness:  p.BestFitness,
			MeanFitness:  p.MeanFitness,
			Replacements: p.Replacements,
		})
	}
}

// Refit retrains on the current training window without new data —
// typically after Evict. Same contract as Fit.
func (f *Forecaster) Refit(ctx context.Context) error {
	if f.data == nil {
		return ErrNotFitted
	}
	rs, stats, err := f.train(ctx, f.data, f.eng)
	if rs == nil || (err != nil && stats.Executions == 0) {
		return err // nothing retrained; the previous system keeps serving
	}
	f.rs, f.fit = rs, stats
	return err
}

// Append streams new patterns into the training store and retrains on
// the updated window: the chunk is routed to the emptiest shard (one
// index rebuild), anything a configured sliding window no longer
// holds is evicted, and the system refits from scratch: the mutation
// bumps the data epoch, so no cached evaluation of the old window is
// reused. Requires WithEngine. Same cancellation contract as Fit; the
// data mutation itself is not rolled back on cancellation.
func (f *Forecaster) Append(ctx context.Context, inputs [][]float64, targets []float64) error {
	if f.eng == nil {
		if f.data == nil {
			return ErrNotFitted
		}
		return ErrNoEngine
	}
	if err := f.eng.Append(inputs, targets); err != nil {
		return err
	}
	if f.s.slidingWin > 0 {
		f.eng.Window(f.s.slidingWin)
	}
	f.data = f.eng.Data()
	f.trace("append", map[string]any{"rows": len(inputs), "live": f.eng.LiveLen()})
	return f.Refit(ctx)
}

// Evict removes the oldest n training patterns and returns how many
// were actually evicted. The fitted rule system is NOT retrained — it
// keeps forecasting from the rules it has — so call Refit (or Append)
// when the model should forget the evicted regime too. Requires
// WithEngine.
func (f *Forecaster) Evict(n int) int {
	if f.eng == nil || n <= 0 {
		return 0
	}
	keep := f.eng.LiveLen() - n
	if keep < 0 {
		keep = 0
	}
	evicted := f.eng.Window(keep)
	f.data = f.eng.Data()
	f.trace("evict", map[string]any{"requested": n, "evicted": evicted, "live": f.eng.LiveLen()})
	return evicted
}

// Predict forecasts one pattern (len D inputs). ok is false when the
// system abstains — no rule covers the pattern — or nothing is
// fitted yet.
func (f *Forecaster) Predict(pattern []float64) (v float64, ok bool) {
	if f.rs == nil {
		return 0, false
	}
	return f.rs.Predict(pattern)
}

// PredictDataset forecasts every pattern of the dataset; mask[i] is
// false where the system abstained. Both slices are nil when nothing
// is fitted yet.
func (f *Forecaster) PredictDataset(ds *Dataset) (pred []float64, mask []bool) {
	if f.rs == nil {
		return nil, nil
	}
	return f.rs.PredictDataset(ds)
}

// Forecast rolls a horizon-1 system forward `steps` steps past the
// end of `recent` (at least D trailing values), feeding each
// prediction back as input. It returns the trajectory and how many
// steps were predicted before the system abstained.
func (f *Forecaster) Forecast(recent []float64, steps int) ([]float64, int) {
	if f.rs == nil {
		return nil, 0
	}
	return f.rs.IteratedForecast(recent, steps)
}

// RuleSet returns the fitted rule system (nil before the first
// successful or cancelled-with-progress Fit). The returned set is the
// live one: callers may inspect, sort, clamp or save it, and later
// refits replace it rather than mutating it.
func (f *Forecaster) RuleSet() *RuleSet { return f.rs }

// Fitted reports whether a rule system is installed.
func (f *Forecaster) Fitted() bool { return f.rs != nil }

// Stats returns the summary of the last (re)fit.
func (f *Forecaster) Stats() FitStats { return f.fit }

// Data returns the current training window (the engine's live view
// when streaming). Nil before the first Fit.
func (f *Forecaster) Data() *Dataset { return f.data }

// StoreStats reports the engine-backed store's state; ok is false
// when the Forecaster runs without WithEngine (or before Fit).
func (f *Forecaster) StoreStats() (st StoreStats, ok bool) {
	if f.eng == nil {
		return StoreStats{}, false
	}
	lo, hi := f.eng.LiveSpread()
	return StoreStats{
		Live:    f.eng.LiveLen(),
		Shards:  f.eng.P(),
		MinLive: lo,
		MaxLive: hi,
		Epoch:   f.eng.Epoch(),
	}, true
}

// LoadRuleSet reads a rule system saved with RuleSet.Save, for
// predict/eval tooling that runs without retraining.
func LoadRuleSet(path string) (*RuleSet, error) { return core.Load(path) }
