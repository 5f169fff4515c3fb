package core

import (
	"repro/internal/series"
)

// InitStratified implements the paper's §3.2 initialization: the
// output range is divided into PopSize equal-width bins; for each bin
// the training patterns whose target falls inside it are collected,
// and the per-lag min/max of those patterns become the rule's
// intervals. The rule's prior prediction is the mean target of the
// bin. Empty bins receive a rule whose intervals span the whole
// per-lag data range (maximally general), with the bin center as
// prior prediction — keeping the intended "uniform distribution
// throughout the range of possible output data".
func InitStratified(data *series.Dataset, popSize int) []*Rule {
	lo, hi := data.TargetRange()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	width := span / float64(popSize)

	// Per-lag global bounds for the empty-bin fallback.
	globalLo := make([]float64, data.D)
	globalHi := make([]float64, data.D)
	for j := 0; j < data.D; j++ {
		globalLo[j], globalHi[j] = data.Inputs[0][j], data.Inputs[0][j]
	}
	for _, row := range data.Inputs {
		for j, v := range row {
			if v < globalLo[j] {
				globalLo[j] = v
			}
			if v > globalHi[j] {
				globalHi[j] = v
			}
		}
	}

	rules := make([]*Rule, popSize)
	for b := 0; b < popSize; b++ {
		binLo := lo + float64(b)*width
		binHi := binLo + width
		if b == popSize-1 {
			binHi = hi // last bin closed so the max target belongs somewhere
		}

		// Step 1: select patterns whose output lies in the bin.
		first := true
		var mins, maxs []float64
		count := 0
		sumTarget := 0.0
		for i, target := range data.Targets {
			inBin := target >= binLo && target < binHi
			if b == popSize-1 {
				inBin = target >= binLo && target <= binHi
			}
			if !inBin {
				continue
			}
			count++
			sumTarget += target
			row := data.Inputs[i]
			if first {
				mins = append([]float64(nil), row...)
				maxs = append([]float64(nil), row...)
				first = false
				continue
			}
			for j, v := range row {
				if v < mins[j] {
					mins[j] = v
				}
				if v > maxs[j] {
					maxs[j] = v
				}
			}
		}

		cond := make([]Interval, data.D)
		var prior float64
		if count > 0 {
			// Steps 2-3: per-lag min/max over the selected patterns.
			for j := 0; j < data.D; j++ {
				cond[j] = NewInterval(mins[j], maxs[j])
			}
			prior = sumTarget / float64(count)
		} else {
			for j := 0; j < data.D; j++ {
				cond[j] = NewInterval(globalLo[j], globalHi[j])
			}
			prior = (binLo + binHi) / 2
		}
		r := NewRule(cond)
		r.Prediction = prior
		rules[b] = r
	}
	return rules
}
