package experiments

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/series"
)

// AblationRow is one design variant evaluated on the Mackey-Glass
// workload (horizon 50): what changed, NMSE over covered points, and
// coverage.
type AblationRow struct {
	Variant     string
	NMSE        float64
	CoveragePct float64
	Rules       int
}

// AblationResult bundles the ablation study of the paper's design
// choices: crowding replacement, stratified initialization, phenotypic
// distance, and the prediction-combination rule.
type AblationResult struct {
	Scale Scale
	Rows  []AblationRow
}

// Ablations runs each variant with an identical budget and seed.
func Ablations(ctx context.Context, sc Scale, seed int64) (*AblationResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	trainSeries, testSeries, err := series.MackeyGlassPaper()
	if err != nil {
		return nil, err
	}
	train, err := series.WindowEmbed(trainSeries, mgEmbedDim, mgEmbedSpacing, 50)
	if err != nil {
		return nil, err
	}
	test, err := series.WindowEmbed(testSeries, mgEmbedDim, mgEmbedSpacing, 50)
	if err != nil {
		return nil, err
	}

	type variant struct {
		name     string
		mutate   func(*core.Config)
		weighted bool
	}
	variants := []variant{
		{name: "paper (crowding, stratified, prediction distance)", mutate: func(*core.Config) {}},
		{name: "replacement: random", mutate: func(c *core.Config) { c.Replacement = core.ReplaceRandom }},
		{name: "replacement: worst", mutate: func(c *core.Config) { c.Replacement = core.ReplaceWorst }},
		{name: "distance: interval overlap", mutate: func(c *core.Config) { c.Distance = core.DistanceOverlap }},
		{name: "distance: hybrid", mutate: func(c *core.Config) { c.Distance = core.DistanceHybrid }},
		{name: "prediction: error-weighted mean", mutate: func(*core.Config) {}, weighted: true},
		{name: "no wildcards", mutate: func(c *core.Config) { c.WildcardRate = 0 }},
		{name: "high mutation (rate 0.4)", mutate: func(c *core.Config) { c.MutationRate = 0.4 }},
	}

	res := &AblationResult{Scale: sc}
	// Every variant evolves against the same windowed series; one
	// match backend serves all eight MultiRun sweeps.
	var eng *engine.Engine
	var idx *core.MatchIndex
	if sc.EngineShards > 0 {
		eng = engine.New(train, sc.engineOptions())
	} else {
		idx = core.NewMatchIndex(train)
	}
	for _, v := range variants {
		base := core.Default(train.D)
		base.Horizon = train.Horizon
		base.PopSize = sc.PopSize
		base.Generations = sc.Generations
		base.Seed = seed
		if eng != nil {
			base.Runtime.Backend = eng
		} else {
			base.Runtime.Backend = idx
		}
		v.mutate(&base)
		mr, err := core.MultiRun(ctx, core.MultiRunConfig{
			Base:           base,
			CoverageTarget: sc.Coverage,
			MaxExecutions:  sc.Executions,
			Parallelism:    sc.Parallelism,
		}, train)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		var pred []float64
		var mask []bool
		if v.weighted {
			pred = make([]float64, test.Len())
			mask = make([]bool, test.Len())
			for i, pattern := range test.Inputs {
				if val, ok := mr.RuleSet.PredictWeighted(pattern); ok {
					pred[i], mask[i] = val, true
				}
			}
		} else {
			pred, mask = mr.RuleSet.PredictDataset(test)
		}
		nmse, cov, err := metrics.MaskedNMSE(pred, test.Targets, mask)
		if err != nil {
			return nil, fmt.Errorf("ablation %q scoring: %w", v.name, err)
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:     v.name,
			NMSE:        nmse,
			CoveragePct: 100 * cov,
			Rules:       mr.RuleSet.Len(),
		})
	}
	return res, nil
}

// Format renders the ablation table.
func (r *AblationResult) Format() string {
	header := []string{"variant", "NMSE", "coverage", "rules"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Variant,
			fmt.Sprintf("%.4f", row.NMSE),
			fmt.Sprintf("%.1f%%", row.CoveragePct),
			fmt.Sprintf("%d", row.Rules),
		})
	}
	title := fmt.Sprintf("Ablations — Mackey-Glass h=50 (scale=%s)", r.Scale.Name)
	return formatRows(title, header, rows)
}
