package core

import (
	"errors"
	"fmt"
)

// Config collects every knob of the evolutionary rule system. Zero
// values are filled in by Default(); Validate rejects inconsistent
// settings before any compute is spent.
type Config struct {
	// Problem shape.
	D       int // number of consecutive inputs per pattern (paper's D)
	Horizon int // prediction horizon τ (only recorded; windowing happens in series)

	// Population and evolution budget.
	PopSize     int // number of rules (the paper uses 100)
	Generations int // steady-state iterations per execution (paper: 75,000)

	// Fitness.
	EMax float64 // maximum tolerated rule error (paper's EMAX)
	FMin float64 // fitness floor for degenerate rules (paper's f_min)

	// Genetic operators.
	TournamentRounds int     // selection trials (paper: 3)
	MutationRate     float64 // per-gene probability of mutating
	MutationSpan     float64 // mutation magnitude as a fraction of the gene's data range
	WildcardRate     float64 // probability a mutated gene toggles to/from wildcard
	CrossoverRate    float64 // probability the offspring is produced by crossover (else clone+mutate)

	// Consequent fitting.
	Ridge float64 // ridge added to the rule regression's diagonal, so a near-singular matched set still solves

	// Crowding.
	Distance    DistanceKind    // phenotypic distance used for replacement
	Replacement ReplacementKind // who the offspring competes against

	// Reproducibility.
	Seed int64 // RNG seed for this execution

	// Runtime holds the execution-machinery knobs — worker counts and
	// the match backend. Every Runtime field is a pure
	// speed knob: results are bit-identical for any setting, unlike
	// the hyperparameters above. The zero value is always valid and
	// means "self-contained sequential execution".
	Runtime Runtime
}

// DistanceKind selects the phenotypic distance used by crowding
// replacement (§3.3 of the paper; see distance.go).
type DistanceKind int

const (
	// DistancePrediction is |p_A - p_B|: rules are close when they
	// predict similar values — the paper's "similar zones in the
	// prediction space". The default.
	DistancePrediction DistanceKind = iota
	// DistanceOverlap is 1 - mean normalized gene overlap: rules are
	// close when their conditions cover similar input regions.
	DistanceOverlap
	// DistanceHybrid averages the two (both normalized).
	DistanceHybrid
)

// ReplacementKind selects the steady-state replacement strategy. The
// paper uses crowding (nearest phenotypic neighbour); the others exist
// for the ablation benches that quantify how much crowding matters.
type ReplacementKind int

const (
	// ReplaceNearest is the paper's crowding: the offspring competes
	// with its phenotypically nearest rule.
	ReplaceNearest ReplacementKind = iota
	// ReplaceRandom competes with a uniformly random rule.
	ReplaceRandom
	// ReplaceWorst competes with the currently least-fit rule
	// (classic steady-state GA, maximum selection pressure, no
	// diversity preservation).
	ReplaceWorst
)

func (k ReplacementKind) String() string {
	switch k {
	case ReplaceNearest:
		return "nearest"
	case ReplaceRandom:
		return "random"
	case ReplaceWorst:
		return "worst"
	default:
		return fmt.Sprintf("ReplacementKind(%d)", int(k))
	}
}

func (k DistanceKind) String() string {
	switch k {
	case DistancePrediction:
		return "prediction"
	case DistanceOverlap:
		return "overlap"
	case DistanceHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("DistanceKind(%d)", int(k))
	}
}

// Default returns the paper-flavoured configuration for a window of
// width d: population 100, 3-round tournaments, uniform crossover.
// Generations defaults to a laptop-scale 20,000 (the paper's full
// 75,000 is a flag away); EMax defaults to 0 and is resolved against
// the data by Evolve (10% of the training target range) unless set.
func Default(d int) Config {
	return Config{
		D:                d,
		Horizon:          1,
		PopSize:          100,
		Generations:      20000,
		EMax:             0, // resolved from data when 0
		FMin:             0,
		TournamentRounds: 3,
		MutationRate:     0.1,
		MutationSpan:     0.1,
		WildcardRate:     0.05,
		CrossoverRate:    1.0,
		Ridge:            1e-8,
		Distance:         DistancePrediction,
		Seed:             1,
	}
}

// ErrConfig wraps every configuration validation failure.
var ErrConfig = errors.New("core: invalid config")

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	switch {
	case c.D <= 0:
		return fmt.Errorf("%w: D=%d must be positive", ErrConfig, c.D)
	case c.Horizon <= 0:
		return fmt.Errorf("%w: Horizon=%d must be positive", ErrConfig, c.Horizon)
	case c.PopSize < 2:
		return fmt.Errorf("%w: PopSize=%d must be at least 2", ErrConfig, c.PopSize)
	case c.Generations < 0:
		return fmt.Errorf("%w: Generations=%d must be non-negative", ErrConfig, c.Generations)
	case c.EMax < 0:
		return fmt.Errorf("%w: EMax=%v must be non-negative", ErrConfig, c.EMax)
	case c.TournamentRounds < 1:
		return fmt.Errorf("%w: TournamentRounds=%d must be at least 1", ErrConfig, c.TournamentRounds)
	case c.MutationRate < 0 || c.MutationRate > 1:
		return fmt.Errorf("%w: MutationRate=%v outside [0,1]", ErrConfig, c.MutationRate)
	case c.MutationSpan <= 0:
		return fmt.Errorf("%w: MutationSpan=%v must be positive", ErrConfig, c.MutationSpan)
	case c.WildcardRate < 0 || c.WildcardRate > 1:
		return fmt.Errorf("%w: WildcardRate=%v outside [0,1]", ErrConfig, c.WildcardRate)
	case c.CrossoverRate < 0 || c.CrossoverRate > 1:
		return fmt.Errorf("%w: CrossoverRate=%v outside [0,1]", ErrConfig, c.CrossoverRate)
	case c.Ridge < 0:
		return fmt.Errorf("%w: Ridge=%v must be non-negative", ErrConfig, c.Ridge)
	}
	return c.Runtime.Validate()
}
