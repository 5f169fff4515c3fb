// Package experiments contains one harness per table and figure of
// the paper's evaluation section, plus the design-choice ablations, a
// generalization check on the Lorenz attractor and a windowed-stream
// lifecycle scenario. Every harness is parameterized by a Scale so the same
// code regenerates the experiment at laptop scale (benchmarks, CI) or
// at the paper's full protocol (-full in cmd/experiments).
package experiments

import (
	"fmt"

	"repro/forecast"
)

// Scale fixes the computational budget of an experiment run. The
// paper's numbers (Paper scale): Venice 45,000 train / 10,000
// validation hourly points, population 100, 75,000 generations.
type Scale struct {
	Name string

	// Data sizes.
	VeniceTrainN int // hourly samples for training
	VeniceValN   int // hourly samples for validation

	// Rule-system budget.
	PopSize     int
	Generations int
	Executions  int // max executions accumulated per MultiRun
	Coverage    float64

	// Baseline budgets.
	MLPEpochs   int
	ElmanEpochs int
	RANPasses   int

	// Parallelism for MultiRun waves (0 = GOMAXPROCS).
	Parallelism int

	// Engine routes every rule evaluation through the lifecycle
	// engine (internal/engine) instead of a plain MatchIndex. Results
	// are bit-identical either way (cmd/experiments sets it when
	// -window or -remote asks for a store).
	Engine bool

	// EngineWindow > 0 caps the live training set of streaming
	// scenarios at that many patterns: the windowed-stream experiment
	// evicts older rows each round (cmd/experiments:
	// -window). 0 lets each scenario pick its own window.
	EngineWindow int

	// EngineRemote routes the facade-driven experiments (tables,
	// figures, generalization) through a cluster of shard servers at
	// these addresses instead of an in-process engine
	// (cmd/experiments: -remote). Results are bit-identical; the
	// direct-core scenarios (ablations, stream) stay in-process.
	EngineRemote []string

	// Telemetry attaches a metrics registry to every facade-driven
	// experiment run: engine/RPC/core metrics, plus trace spans when
	// the registry has a trace sink (cmd/experiments: -debug-addr and
	// -trace). Purely observational — results are bit-identical with
	// or without it.
	Telemetry *forecast.Telemetry
}

// Tiny is the unit-test scale: everything completes in well under a
// second per table.
func Tiny() Scale {
	return Scale{
		Name:         "tiny",
		VeniceTrainN: 1500,
		VeniceValN:   400,
		PopSize:      24,
		Generations:  300,
		Executions:   2,
		Coverage:     0.95,
		MLPEpochs:    6,
		ElmanEpochs:  4,
		RANPasses:    1,
		Parallelism:  0,
	}
}

// Quick is the benchmark scale: minutes for the whole suite, with
// enough budget that the paper's qualitative shape (who wins, where)
// is reproduced.
func Quick() Scale {
	return Scale{
		Name:         "quick",
		VeniceTrainN: 6000,
		VeniceValN:   1500,
		PopSize:      60,
		Generations:  6000,
		Executions:   6,
		Coverage:     0.98,
		MLPEpochs:    40,
		ElmanEpochs:  30,
		RANPasses:    2,
		Parallelism:  0,
	}
}

// Paper is the full protocol of the paper: 45k/10k Venice split,
// population 100, 75,000 generations per execution.
func Paper() Scale {
	return Scale{
		Name:         "paper",
		VeniceTrainN: 45000,
		VeniceValN:   10000,
		PopSize:      100,
		Generations:  75000,
		Executions:   6,
		Coverage:     0.99,
		MLPEpochs:    200,
		ElmanEpochs:  150,
		RANPasses:    3,
		Parallelism:  0,
	}
}

// Validate rejects unusable scales.
func (s *Scale) Validate() error {
	switch {
	case s.VeniceTrainN < 200 || s.VeniceValN < 100:
		return fmt.Errorf("experiments: scale %q: Venice split %d/%d too small", s.Name, s.VeniceTrainN, s.VeniceValN)
	case s.PopSize < 2:
		return fmt.Errorf("experiments: scale %q: PopSize %d", s.Name, s.PopSize)
	case s.Generations < 1:
		return fmt.Errorf("experiments: scale %q: Generations %d", s.Name, s.Generations)
	case s.Executions < 1:
		return fmt.Errorf("experiments: scale %q: Executions %d", s.Name, s.Executions)
	case s.MLPEpochs < 1 || s.ElmanEpochs < 1 || s.RANPasses < 1:
		return fmt.Errorf("experiments: scale %q: baseline budgets must be positive", s.Name)
	}
	return nil
}
