package stats

import "fmt"

// MinMaxScaler maps values linearly from [Lo,Hi] to [0,1], the
// normalization the paper applies to the Mackey-Glass and sunspot
// series. Fit on training data, then apply to both splits so no test
// information leaks into the transform.
type MinMaxScaler struct {
	Lo, Hi float64
}

// FitMinMax computes scaler bounds from xs. If the slice is constant,
// Hi is nudged so Transform stays finite.
func FitMinMax(xs []float64) *MinMaxScaler {
	lo, hi := MinMax(xs)
	if hi == lo {
		hi = lo + 1
	}
	return &MinMaxScaler{Lo: lo, Hi: hi}
}

// Transform maps v into scaled space.
func (s *MinMaxScaler) Transform(v float64) float64 {
	return (v - s.Lo) / (s.Hi - s.Lo)
}

// Inverse maps a scaled value back into the original space.
func (s *MinMaxScaler) Inverse(v float64) float64 {
	return s.Lo + v*(s.Hi-s.Lo)
}

// TransformSlice returns a new slice with every value transformed.
func (s *MinMaxScaler) TransformSlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = s.Transform(v)
	}
	return out
}

// String describes the scaler.
func (s *MinMaxScaler) String() string {
	return fmt.Sprintf("minmax[%.4g,%.4g]", s.Lo, s.Hi)
}
