package metrics

import (
	"errors"
	"math"
)

// Extended error measures beyond the three the paper reports, used by
// the robustness experiments and the CLI's eval subcommand.

// MAPE returns the mean absolute percentage error (in percent).
// Targets equal to zero are skipped; if every target is zero the
// metric is undefined.
func MAPE(pred, want []float64) (float64, error) {
	if len(pred) != len(want) {
		return 0, ErrLength
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	s, n := 0.0, 0
	for i := range pred {
		if want[i] == 0 {
			continue
		}
		s += math.Abs((pred[i] - want[i]) / want[i])
		n++
	}
	if n == 0 {
		return 0, errors.New("metrics: MAPE undefined for all-zero targets")
	}
	return 100 * s / float64(n), nil
}

// TheilU returns Theil's U statistic against the naive "no-change"
// forecast: U < 1 means the predictor beats persistence, U = 1
// matches it. prev holds the last observed value for each pattern
// (the persistence forecast).
func TheilU(pred, want, prev []float64) (float64, error) {
	if len(pred) != len(want) || len(pred) != len(prev) {
		return 0, ErrLength
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	var num, den float64
	for i := range pred {
		d := pred[i] - want[i]
		num += d * d
		n := prev[i] - want[i]
		den += n * n
	}
	if den == 0 {
		return 0, errors.New("metrics: TheilU undefined (persistence is exact)")
	}
	return math.Sqrt(num / den), nil
}

// R2 returns the coefficient of determination 1 - SSE/SST. A perfect
// predictor scores 1; the mean predictor scores 0; worse-than-mean
// predictors go negative.
func R2(pred, want []float64) (float64, error) {
	if len(pred) != len(want) {
		return 0, ErrLength
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	mean := 0.0
	for _, w := range want {
		mean += w
	}
	mean /= float64(len(want))
	var sse, sst float64
	for i := range pred {
		d := pred[i] - want[i]
		sse += d * d
		m := want[i] - mean
		sst += m * m
	}
	if sst == 0 {
		return 0, errors.New("metrics: R2 undefined for constant targets")
	}
	return 1 - sse/sst, nil
}
