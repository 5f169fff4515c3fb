package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile of xs that still has at least ten
// samples above it, with that percentile; ok is false when the sample
// is too small for that percentile to reach the median.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < 21 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11 // ten samples lie above s[k]
	return s[k], 100 * float64(k) / float64(n-1), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func micros(d time.Duration) float64  { return float64(d) / 1e3 }
func millis(d time.Duration) float64  { return float64(d) / 1e6 }
