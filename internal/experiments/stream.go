package experiments

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/series"
)

// WindowedStream is the streaming lifecycle scenario: a rule system
// serves a prequential (test-then-train) forecast over an endless
// Mackey-Glass stream while its training set is a true sliding window
// — every round appends the incoming chunk, evicts what fell out of
// the window and retrains through the same engine. It exercises the
// full data-plane lifecycle (append → window) at experiment scale,
// reporting forecast quality next to the live window size.

// StreamRow is one prequential round of the windowed stream.
type StreamRow struct {
	Round       int
	NewPatterns int     // patterns that arrived this round
	Evicted     int     // patterns that left the window
	Live        int     // live training patterns after the slide
	RMSE        float64 // forecast error on the chunk, before training saw it
	CoveragePct float64 // chunk coverage
}

// StreamResult is the windowed-stream experiment outcome.
type StreamResult struct {
	Window int // sliding-window cap (live patterns)
	Rows   []StreamRow
}

// Format renders the per-round table.
func (r *StreamResult) Format() string {
	header := []string{"round", "new", "evicted", "live", "rmse", "coverage"}
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d", row.Round),
			fmt.Sprintf("%d", row.NewPatterns),
			fmt.Sprintf("%d", row.Evicted),
			fmt.Sprintf("%d", row.Live),
			fmt.Sprintf("%.4f", row.RMSE),
			fmt.Sprintf("%.1f%%", row.CoveragePct),
		}
	}
	return formatRows(
		fmt.Sprintf("Windowed stream — prequential Mackey-Glass, sliding window of %d patterns", r.Window),
		header, rows)
}

// streamRounds fixes the number of prequential rounds; enough slides
// that the window turns over completely at every scale.
const streamRounds = 6

// WindowedStream runs the scenario at the given scale. The stream
// length tracks the scale's training-set size; the window defaults to
// half of it (sc.EngineWindow overrides). This scenario is about the
// engine, so it always trains through one, whatever sc.Engine says.
func WindowedStream(ctx context.Context, sc Scale, seed int64) (*StreamResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	const d, horizon = 6, 1
	total := sc.VeniceTrainN
	prefix := total / 2
	chunk := (total - prefix) / streamRounds

	s, err := series.MackeyGlass(series.DefaultMackeyGlass(total))
	if err != nil {
		return nil, err
	}
	values := s.Values

	ds, err := series.Window(series.New("mg/stream", values[:prefix]), d, horizon)
	if err != nil {
		return nil, err
	}
	window := sc.EngineWindow
	if window <= 0 {
		window = ds.Len()
	}
	eng := engine.New(ds, engine.Options{})

	train := func(round int) (*core.RuleSet, error) {
		base := core.Default(d)
		base.Horizon = horizon
		base.PopSize = sc.PopSize
		base.Generations = sc.Generations / 2
		base.Seed = seed + int64(round)
		base.Runtime.Backend = eng
		res, err := core.MultiRun(ctx, core.MultiRunConfig{
			Base:           base,
			CoverageTarget: sc.Coverage,
			MaxExecutions:  2,
			Parallelism:    sc.Parallelism,
		}, eng.Data())
		if err != nil {
			return nil, err
		}
		return res.RuleSet, nil
	}

	rs, err := train(0)
	if err != nil {
		return nil, err
	}

	out := &StreamResult{Window: window}
	grown := prefix
	for round := 1; round <= streamRounds; round++ {
		next := grown + chunk
		if next > total {
			next = total
		}
		inputs, targets := series.TailPatterns(values[:next], grown, d, horizon)
		if len(inputs) == 0 {
			break
		}

		// Prequential test: forecast the chunk before training sees it.
		test := &series.Dataset{Inputs: inputs, Targets: targets, D: d, Horizon: horizon}
		pred, mask := rs.PredictDataset(test)
		rmse, cov, err := metrics.MaskedRMSE(pred, targets, mask)
		if err != nil {
			return nil, err
		}

		// Slide the window: append, then evict down to the window (the
		// engine epoch expires every cached evaluation).
		if err := eng.Append(inputs, targets); err != nil {
			return nil, err
		}
		evicted := eng.Window(window)
		out.Rows = append(out.Rows, StreamRow{
			Round:       round,
			NewPatterns: len(inputs),
			Evicted:     evicted,
			Live:        eng.LiveLen(),
			RMSE:        rmse,
			CoveragePct: 100 * cov,
		})

		if rs, err = train(round); err != nil {
			return nil, err
		}
		grown = next
	}
	return out, nil
}
