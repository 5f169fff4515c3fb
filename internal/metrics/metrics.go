// Package metrics implements the error measures the paper reports,
// one per experimental domain, plus general-purpose companions:
//
//   - RMSE — root mean squared error, used for the Venice Lagoon
//     comparison (Table 1).
//   - NMSE — normalized mean squared error (MSE divided by target
//     variance), used for Mackey-Glass (Table 2).
//   - GalvanError — the sunspot measure of Galván & Isasi used in
//     Table 3: e = 1/(2(N+τ)) Σ (x(i)-x̃(i))².
//   - MAE, MSE — standard companions.
//
// All metrics also come in "masked" form: the rule system abstains on
// patterns no rule matches, so errors are computed over the predicted
// subset while Coverage reports the predicted fraction (the paper's
// "percentage of prediction").
package metrics

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// ErrLength is returned when prediction and target lengths differ.
var ErrLength = errors.New("metrics: prediction/target length mismatch")

// ErrEmpty is returned when a metric is evaluated over zero points.
var ErrEmpty = errors.New("metrics: no points to score")

// MSE returns the mean squared error between pred and want.
func MSE(pred, want []float64) (float64, error) {
	if len(pred) != len(want) {
		return 0, ErrLength
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - want[i]
		s += d * d
	}
	return s / float64(len(pred)), nil
}

// RMSE returns the root mean squared error, the paper's Venice metric.
func RMSE(pred, want []float64) (float64, error) {
	mse, err := MSE(pred, want)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(mse), nil
}

// MAE returns the mean absolute error.
func MAE(pred, want []float64) (float64, error) {
	if len(pred) != len(want) {
		return 0, ErrLength
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - want[i])
	}
	return s / float64(len(pred)), nil
}

// NMSE returns MSE normalized by the variance of the targets, the
// Mackey-Glass measure of Table 2. A perfect predictor scores 0; the
// mean predictor scores 1. Zero-variance targets are an error.
func NMSE(pred, want []float64) (float64, error) {
	mse, err := MSE(pred, want)
	if err != nil {
		return 0, err
	}
	v := stats.Variance(want)
	if v == 0 {
		return 0, errors.New("metrics: NMSE undefined for zero-variance targets")
	}
	return mse / v, nil
}

// GalvanError is the sunspot-domain error of Table 3:
//
//	e = 1/(2(N+τ)) Σ_{i=0..N} (x(i)-x̃(i))²
//
// where N+1 points are scored and τ is the prediction horizon. It is
// half the MSE with a horizon-dependent denominator, kept here exactly
// as printed so our Table 3 is comparable with the paper's.
func GalvanError(pred, want []float64, horizon int) (float64, error) {
	if len(pred) != len(want) {
		return 0, ErrLength
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	if horizon < 0 {
		return 0, errors.New("metrics: negative horizon")
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - want[i]
		s += d * d
	}
	// The paper scores points i=0..N, i.e. N = len-1.
	n := len(pred) - 1
	return s / (2 * float64(n+horizon)), nil
}
