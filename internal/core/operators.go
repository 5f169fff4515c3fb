package core

import (
	"math"

	"repro/internal/rng"
)

// roulette is fitness-proportional selection over one generation's
// population: the prefix sums of its fitness, built once per
// generation and searched by every draw. Each draw returns exactly
// the index rng.Roulette would over the same weights with the same
// stream — one Float64 (or, when no weight counts, one Intn) — without
// a weights slice or a rescan per draw.
type roulette struct {
	cum []float64 // cum[i]: summed counted fitness of pop[0..i]
}

// reset rebuilds the prefix sums for pop, accumulating in
// rng.Roulette's order and with its rule: non-positive, +Inf and NaN
// fitness count as zero. The sums never decrease, even once they
// overflow to +Inf.
func (w *roulette) reset(pop []*Rule) {
	if cap(w.cum) < len(pop) {
		w.cum = make([]float64, len(pop))
	}
	w.cum = w.cum[:len(pop)]
	acc := 0.0
	for i, r := range pop {
		if f := r.Fitness; f > 0 && !math.IsInf(f, 1) && !math.IsNaN(f) {
			acc += f
		}
		w.cum[i] = acc
	}
}

// draw is one roulette spin: the first index whose prefix sum exceeds
// the target, found by binary search (rng.Roulette's linear scan stops
// at the same index because the sums are non-decreasing). No weight
// counting falls back to a uniform pick; no prefix exceeding the
// target (a NaN or +Inf target) picks the last index, as rng.Roulette
// does.
func (w *roulette) draw(src *rng.Source) int {
	n := len(w.cum)
	total := w.cum[n-1]
	if total <= 0 {
		return src.Intn(n)
	}
	target := src.Float64() * total
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if w.cum[m] > target {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == n {
		return n - 1
	}
	return lo
}

// pick implements the paper's "three rounds trials" selection: the
// configured number of independent roulette draws over pop (whose
// prefix sums w must hold), keeping the fittest of the drawn
// candidates. Returns the index of the selected individual.
func (w *roulette) pick(pop []*Rule, rounds int, src *rng.Source) int {
	best := w.draw(src)
	for round := 1; round < rounds; round++ {
		if cand := w.draw(src); pop[cand].Fitness > pop[best].Fitness {
			best = cand
		}
	}
	return best
}

// crossover produces one offspring by uniform crossover: each gene is
// inherited from either parent with probability 1/2. Per the paper,
// the offspring does NOT inherit prediction or error — those come from
// re-evaluation.
func crossover(a, b *Rule, src *rng.Source) *Rule {
	d := len(a.Cond)
	cond := make([]Interval, d)
	for i := 0; i < d; i++ {
		if src.Bool(0.5) {
			cond[i] = a.Cond[i]
		} else {
			cond[i] = b.Cond[i]
		}
	}
	child := NewRule(cond)
	// Prior prediction (used only until evaluation, and only for
	// distance when the child matches nothing): midpoint of parents.
	child.Prediction = (a.Prediction + b.Prediction) / 2
	return child
}

// mutator applies the paper's gene mutations — enlargement, shrink,
// move up, move down — plus a wildcard toggle, with magnitudes scaled
// to each lag's observed data range.
type mutator struct {
	rate         float64   // per-gene mutation probability
	span         float64   // magnitude as a fraction of the lag's range
	wildcardRate float64   // probability a mutation toggles wildcard
	lagLo, lagHi []float64 // per-lag data bounds (clamping + magnitudes)
}

// newMutator captures per-lag data bounds from the dataset the
// evaluator scores against.
func newMutator(rate, span, wildcardRate float64, lagLo, lagHi []float64) *mutator {
	return &mutator{rate: rate, span: span, wildcardRate: wildcardRate, lagLo: lagLo, lagHi: lagHi}
}

// mutate modifies the rule's genes in place.
func (m *mutator) mutate(r *Rule, src *rng.Source) {
	for j := range r.Cond {
		if !src.Bool(m.rate) {
			continue
		}
		lagRange := m.lagHi[j] - m.lagLo[j]
		if lagRange == 0 {
			lagRange = 1
		}
		if src.Bool(m.wildcardRate) {
			if r.Cond[j].Wildcard {
				// Re-materialize around a random center at mutation scale.
				c := src.Uniform(m.lagLo[j], m.lagHi[j])
				half := 0.5 * m.span * lagRange
				r.Cond[j] = NewInterval(c-half, c+half).Clamp(m.lagLo[j], m.lagHi[j])
			} else {
				r.Cond[j] = Wild()
			}
			continue
		}
		if r.Cond[j].Wildcard {
			continue // only the toggle path touches wildcards
		}
		delta := src.Uniform(0, m.span*lagRange)
		switch src.Intn(4) {
		case 0:
			r.Cond[j] = r.Cond[j].Enlarge(delta)
		case 1:
			r.Cond[j] = r.Cond[j].Shrink(delta)
		case 2:
			r.Cond[j] = r.Cond[j].Shift(delta)
		case 3:
			r.Cond[j] = r.Cond[j].Shift(-delta)
		}
		r.Cond[j] = r.Cond[j].Clamp(m.lagLo[j], m.lagHi[j])
	}
}

// ruleDistance computes the configured phenotypic distance between
// two rules; predSpan normalizes prediction distances to the target
// range so hybrid mixing is scale-free.
func ruleDistance(a, b *Rule, kind DistanceKind, predSpan float64) float64 {
	switch kind {
	case DistancePrediction:
		return math.Abs(a.Prediction - b.Prediction)
	case DistanceOverlap:
		return overlapDistance(a, b)
	case DistanceHybrid:
		p := math.Abs(a.Prediction-b.Prediction) / math.Max(predSpan, 1e-12)
		return 0.5*math.Min(p, 1) + 0.5*overlapDistance(a, b)
	default:
		return math.Abs(a.Prediction - b.Prediction)
	}
}

// overlapDistance is 1 - mean normalized per-gene overlap: 0 for
// identical conditions, 1 for disjoint ones. Wildcards overlap
// everything fully.
func overlapDistance(a, b *Rule) float64 {
	d := len(a.Cond)
	if d == 0 {
		return 0
	}
	total := 0.0
	for j := 0; j < d; j++ {
		ga, gb := a.Cond[j], b.Cond[j]
		if ga.Wildcard || gb.Wildcard {
			// A wildcard covers the other gene entirely.
			total += 1
			continue
		}
		ov := ga.Overlap(gb)
		union := math.Max(ga.Hi, gb.Hi) - math.Min(ga.Lo, gb.Lo)
		if union <= 0 {
			// Both degenerate points: identical iff equal.
			if ga.Lo == gb.Lo {
				total += 1
			}
			continue
		}
		total += ov / union
	}
	return 1 - total/float64(d)
}

// nearestIndex returns the population index phenotypically closest to
// the candidate rule (crowding replacement target).
func nearestIndex(pop []*Rule, cand *Rule, kind DistanceKind, predSpan float64) int {
	best := 0
	bestDist := math.Inf(1)
	for i, r := range pop {
		if d := ruleDistance(r, cand, kind, predSpan); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}
