package experiments

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/series"
)

// Figure1Result carries the paper's Figure 1: the graphical
// representation of one evolved rule.
type Figure1Result struct {
	Rule     *core.Rule
	Rendered string
}

// Figure1 evolves a small population on the Mackey-Glass series and
// renders its fittest rule as interval boxes plus prediction column,
// the diagram of the paper's Figure 1.
func Figure1(ctx context.Context, sc Scale, seed int64) (*Figure1Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	trainSeries, _, err := series.MackeyGlassPaper()
	if err != nil {
		return nil, err
	}
	train, err := series.WindowEmbed(trainSeries, mgEmbedDim, mgEmbedSpacing, 50)
	if err != nil {
		return nil, err
	}
	cfg := core.Default(train.D)
	cfg.PopSize = sc.PopSize
	cfg.Generations = sc.Generations
	cfg.Seed = seed
	ex, err := core.NewExecution(ctx, cfg, train)
	if err != nil {
		return nil, err
	}
	ex.Run(ctx, 0, nil)
	rules := ex.ValidRules()
	if len(rules) == 0 {
		return nil, fmt.Errorf("figure1: no valid rules evolved")
	}
	best := rules[0]
	for _, r := range rules[1:] {
		if r.Fitness > best.Fitness {
			best = r
		}
	}
	return &Figure1Result{Rule: best, Rendered: plot.RenderRule(best, 14)}, nil
}

// Figure2Result carries the paper's Figure 2: real vs predicted water
// level around the validation set's most unusual (highest) tide at
// horizon 1.
type Figure2Result struct {
	Scale     Scale
	PeakIndex int       // index of the tide peak within the validation series
	Real      []float64 // water level (cm) in the plotted window
	Predicted []float64 // rule-system prediction; NaN-free, aligned with Real
	Mask      []bool    // where the system actually predicted
	PeakValue float64
	Rendered  string // ASCII chart
}

// figure2Window is the number of hourly points plotted on each side
// of the peak.
const figure2Window = 60

// Figure2 trains the rule system on the Venice series at horizon 1,
// locates the highest tide in the validation segment, and returns the
// aligned real/predicted traces around it.
func Figure2(ctx context.Context, sc Scale, seed int64) (*Figure2Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	const d = 24
	trainSeries, valSeries, err := series.VenicePaper(sc.VeniceTrainN, sc.VeniceValN, seed)
	if err != nil {
		return nil, err
	}
	train, err := series.Window(trainSeries, d, 1)
	if err != nil {
		return nil, err
	}
	val, err := series.Window(valSeries, d, 1)
	if err != nil {
		return nil, err
	}
	_, pred, mask, err := ruleSystemRun(ctx, train, val, sc, seed, veniceEMaxFrac(1))
	if err != nil {
		return nil, err
	}

	// Locate the highest tide among predicted *targets* (pattern i's
	// target is valSeries[i+d]; targets index-align with pred).
	peak := 0
	for i, v := range val.Targets {
		if v > val.Targets[peak] {
			peak = i
		}
	}
	lo := peak - figure2Window
	if lo < 0 {
		lo = 0
	}
	hi := peak + figure2Window
	if hi > len(val.Targets) {
		hi = len(val.Targets)
	}

	res := &Figure2Result{
		Scale:     sc,
		PeakIndex: peak,
		PeakValue: val.Targets[peak],
		Real:      append([]float64(nil), val.Targets[lo:hi]...),
		Predicted: append([]float64(nil), pred[lo:hi]...),
		Mask:      append([]bool(nil), mask[lo:hi]...),
	}
	// For plotting, carry forward the last prediction across abstained
	// points (they stay visible in Mask).
	lastValid := res.Real[0]
	for i := range res.Predicted {
		if res.Mask[i] {
			lastValid = res.Predicted[i]
		} else {
			res.Predicted[i] = lastValid
		}
	}
	chart := plot.NewChart(100, 18)
	chart.Add("real water level", res.Real, '·')
	chart.Add("rule-system prediction (h=1)", res.Predicted, '*')
	res.Rendered = fmt.Sprintf("Figure 2 — unusual tide, peak %.1f cm (scale=%s)\n%s",
		res.PeakValue, sc.Name, chart.Render())
	return res, nil
}
