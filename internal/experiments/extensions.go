package experiments

import (
	"context"

	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pittsburgh"
	"repro/internal/series"
)

// The paper's conclusions make three quantitative claims its tables
// never show directly. The harnesses in this file measure them:
//
//   - "The algorithm can also be tuned in order to attain a higher
//     prediction percentage at the cost of worse prediction results"
//     → Tradeoff sweeps the rule-set pruning threshold.
//   - "when the prediction horizon increases, the percentage of
//     prediction does not diminish … less rules are necessary"
//     → HorizonStability sweeps the horizon on one domain.
//   - The Michigan population-as-solution design is what captures
//     atypical behaviour → MichiganVsPittsburgh compares against a
//     Pittsburgh GA with the same evaluation budget.
//
// NoiseRobustness additionally measures degradation under observation
// noise, the regime the paper's "noise vs knowledge" discussion (§1)
// motivates.

// TradeoffRow is one pruning threshold: rules whose training error
// exceeds frac·EMAX are dropped before prediction.
type TradeoffRow struct {
	PruneFrac   float64 // keep rules with error ≤ PruneFrac · EMAX
	CoveragePct float64
	NMSE        float64
	Rules       int
}

// TradeoffResult is the coverage-accuracy curve.
type TradeoffResult struct {
	Scale Scale
	Rows  []TradeoffRow
}

// Tradeoff trains once on Mackey-Glass (h=50) and evaluates the same
// rule set under increasingly strict pruning.
func Tradeoff(ctx context.Context, sc Scale, seed int64) (*TradeoffResult, error) {
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
	rs, _, _, err := ruleSystemRun(ctx, train, test, sc, seed, 0)
	if err != nil {
		return nil, err
	}
	emax := defaultEMax(train)

	res := &TradeoffResult{Scale: sc}
	for _, frac := range []float64{1.0, 0.8, 0.6, 0.4, 0.25, 0.15} {
		pruned := core.NewRuleSet(rs.D)
		pruned.Add(rs.Rules...)
		pruned.Prune(frac*emax, 2)
		if pruned.Len() == 0 {
			res.Rows = append(res.Rows, TradeoffRow{PruneFrac: frac, NMSE: math.NaN()})
			continue
		}
		pred, mask := pruned.PredictDataset(test)
		nmse, cov, err := metrics.MaskedNMSE(pred, test.Targets, mask)
		if err != nil {
			nmse, cov = math.NaN(), 0
		}
		res.Rows = append(res.Rows, TradeoffRow{
			PruneFrac:   frac,
			CoveragePct: 100 * cov,
			NMSE:        nmse,
			Rules:       pruned.Len(),
		})
	}
	return res, nil
}

// Format renders the tradeoff curve.
func (r *TradeoffResult) Format() string {
	header := []string{"prune ≤ frac·EMAX", "coverage", "NMSE", "rules"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", row.PruneFrac),
			fmt.Sprintf("%.1f%%", row.CoveragePct),
			fmt.Sprintf("%.4f", row.NMSE),
			fmt.Sprintf("%d", row.Rules),
		})
	}
	title := fmt.Sprintf("Coverage-accuracy tradeoff — Mackey-Glass h=50 (scale=%s)", r.Scale.Name)
	return formatRows(title, header, rows)
}

// HorizonRow is one horizon of the stability sweep.
type HorizonRow struct {
	Horizon     int
	CoveragePct float64
	NMSE        float64
	Rules       int
}

// HorizonStabilityResult is the horizon sweep on Mackey-Glass.
type HorizonStabilityResult struct {
	Scale Scale
	Rows  []HorizonRow
}

// HorizonStability sweeps the prediction horizon on Mackey-Glass and
// reports coverage, error and rule count per horizon (§4.1's claim:
// coverage holds and rule count does not grow as τ increases).
func HorizonStability(ctx context.Context, sc Scale, seed int64) (*HorizonStabilityResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	trainSeries, testSeries, err := series.MackeyGlassPaper()
	if err != nil {
		return nil, err
	}
	res := &HorizonStabilityResult{Scale: sc}
	for _, h := range []int{10, 25, 50, 70, 85} {
		train, err := series.WindowEmbed(trainSeries, mgEmbedDim, mgEmbedSpacing, h)
		if err != nil {
			return nil, err
		}
		test, err := series.WindowEmbed(testSeries, mgEmbedDim, mgEmbedSpacing, h)
		if err != nil {
			return nil, err
		}
		rs, pred, mask, err := ruleSystemRun(ctx, train, test, sc, seed+int64(h), 0)
		if err != nil {
			return nil, err
		}
		nmse, cov, err := metrics.MaskedNMSE(pred, test.Targets, mask)
		if err != nil {
			nmse, cov = math.NaN(), 0
		}
		res.Rows = append(res.Rows, HorizonRow{
			Horizon:     h,
			CoveragePct: 100 * cov,
			NMSE:        nmse,
			Rules:       rs.Len(),
		})
	}
	return res, nil
}

// Format renders the horizon sweep.
func (r *HorizonStabilityResult) Format() string {
	header := []string{"horizon", "coverage", "NMSE", "rules"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Horizon),
			fmt.Sprintf("%.1f%%", row.CoveragePct),
			fmt.Sprintf("%.4f", row.NMSE),
			fmt.Sprintf("%d", row.Rules),
		})
	}
	title := fmt.Sprintf("Horizon stability — Mackey-Glass (scale=%s)", r.Scale.Name)
	return formatRows(title, header, rows)
}

// NoiseRow is one observation-noise level (std as a fraction of the
// series range).
type NoiseRow struct {
	NoiseFrac   float64
	NMSERules   float64
	NMSERAN     float64
	CoveragePct float64
}

// NoiseRobustnessResult is the noise sweep.
type NoiseRobustnessResult struct {
	Scale Scale
	Rows  []NoiseRow
}

// NoiseRobustness adds Gaussian observation noise to the Mackey-Glass
// series (train and test alike) and tracks how the rule system and
// the RAN baseline degrade.
func NoiseRobustness(ctx context.Context, sc Scale, seed int64) (*NoiseRobustnessResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cleanTrain, cleanTest, err := series.MackeyGlassPaper()
	if err != nil {
		return nil, err
	}
	res := &NoiseRobustnessResult{Scale: sc}
	for i, frac := range []float64{0, 0.01, 0.03, 0.06} {
		noisyTrain := series.AddNoise(cleanTrain, frac, seed+int64(i))
		noisyTest := series.AddNoise(cleanTest, frac, seed+int64(i)+1000)
		train, err := series.WindowEmbed(noisyTrain, mgEmbedDim, mgEmbedSpacing, 50)
		if err != nil {
			return nil, err
		}
		test, err := series.WindowEmbed(noisyTest, mgEmbedDim, mgEmbedSpacing, 50)
		if err != nil {
			return nil, err
		}
		_, pred, mask, err := ruleSystemRun(ctx, train, test, sc, seed, 0)
		if err != nil {
			return nil, err
		}
		nmseRS, cov, err := metrics.MaskedNMSE(pred, test.Targets, mask)
		if err != nil {
			nmseRS, cov = math.NaN(), 0
		}
		ranPred, err := ranRun(train, test, sc.RANPasses, false)
		if err != nil {
			return nil, err
		}
		nmseRAN, err := metrics.NMSE(ranPred, test.Targets)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, NoiseRow{
			NoiseFrac:   frac,
			NMSERules:   nmseRS,
			NMSERAN:     nmseRAN,
			CoveragePct: 100 * cov,
		})
	}
	return res, nil
}

// Format renders the noise sweep.
func (r *NoiseRobustnessResult) Format() string {
	header := []string{"noise std (frac of range)", "NMSE rules", "NMSE RAN", "coverage"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", row.NoiseFrac),
			fmt.Sprintf("%.4f", row.NMSERules),
			fmt.Sprintf("%.4f", row.NMSERAN),
			fmt.Sprintf("%.1f%%", row.CoveragePct),
		})
	}
	title := fmt.Sprintf("Noise robustness — Mackey-Glass h=50 (scale=%s)", r.Scale.Name)
	return formatRows(title, header, rows)
}

// ApproachRow is one evolutionary architecture.
type ApproachRow struct {
	Approach    string
	NMSE        float64
	CoveragePct float64
	Rules       int
}

// ApproachResult compares Michigan (the paper) against Pittsburgh and
// the island-model extension under comparable budgets.
type ApproachResult struct {
	Scale Scale
	Rows  []ApproachRow
}

// MichiganVsPittsburgh runs the three architectures on Mackey-Glass
// h=50. The Pittsburgh budget is matched on total rule evaluations:
// PopSize·Generations(steady-state) ≈ SetPop·SetGens·RulesPerSet.
func MichiganVsPittsburgh(ctx context.Context, sc Scale, seed int64) (*ApproachResult, error) {
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
	res := &ApproachResult{Scale: sc}
	score := func(name string, rs *core.RuleSet) error {
		pred, mask := rs.PredictDataset(test)
		nmse, cov, err := metrics.MaskedNMSE(pred, test.Targets, mask)
		if err != nil {
			nmse, cov = math.NaN(), 0
		}
		res.Rows = append(res.Rows, ApproachRow{
			Approach:    name,
			NMSE:        nmse,
			CoveragePct: 100 * cov,
			Rules:       rs.Len(),
		})
		return nil
	}

	// Michigan (the paper).
	rs, _, _, err := ruleSystemRun(ctx, train, test, sc, seed, 0)
	if err != nil {
		return nil, err
	}
	if err := score("Michigan (paper)", rs); err != nil {
		return nil, err
	}

	// One engine can serve both remaining approaches: islands and
	// Pittsburgh evaluate against the same training window.
	var eng *engine.Engine
	if sc.EngineShards > 0 {
		eng = engine.New(train, sc.engineOptions())
	}

	// Island model: same per-execution budget split across 4 islands.
	base := core.Default(train.D)
	base.Horizon = train.Horizon
	base.PopSize = sc.PopSize
	base.Generations = sc.Generations
	base.Seed = seed
	base.EMax = defaultEMax(train)
	if eng != nil {
		eng.Configure(&base)
	}
	isl, err := core.RunIslands(ctx, core.IslandConfig{
		Base:              base,
		Islands:           4,
		MigrationInterval: maxInt(sc.Generations/10, 1),
		Migrants:          2,
		Parallelism:       sc.Parallelism,
	}, train)
	if err != nil {
		return nil, err
	}
	if err := score("Michigan + islands", isl.RuleSet); err != nil {
		return nil, err
	}

	// Pittsburgh with a matched evaluation budget.
	pcfg := pittsburgh.Default()
	pcfg.Seed = seed
	pcfg.RulesPerSet = sc.PopSize / 3
	if pcfg.RulesPerSet < 4 {
		pcfg.RulesPerSet = 4
	}
	pcfg.PopSize = 20
	pcfg.Generations = maxInt(sc.Generations*sc.PopSize/(pcfg.PopSize*pcfg.RulesPerSet*10), 5)
	if eng != nil {
		pcfg.Backend = eng
	}
	pres, err := pittsburgh.Run(ctx, pcfg, train)
	if err != nil {
		return nil, err
	}
	if err := score("Pittsburgh", pres.RuleSet); err != nil {
		return nil, err
	}
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Format renders the architecture comparison.
func (r *ApproachResult) Format() string {
	header := []string{"approach", "NMSE", "coverage", "rules"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Approach,
			fmt.Sprintf("%.4f", row.NMSE),
			fmt.Sprintf("%.1f%%", row.CoveragePct),
			fmt.Sprintf("%d", row.Rules),
		})
	}
	title := fmt.Sprintf("Michigan vs Pittsburgh vs islands — Mackey-Glass h=50 (scale=%s)", r.Scale.Name)
	return formatRows(title, header, rows)
}
