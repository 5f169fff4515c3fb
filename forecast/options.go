package forecast

import (
	"errors"
	"fmt"
)

// ErrOption wraps every option validation failure reported by New.
var ErrOption = errors.New("forecast: invalid option")

// Option configures a Forecaster. Options are applied in order by New
// and validated together, so contradictory combinations (islands
// together with multi-run, a remote cluster together with the
// engine) fail fast instead of silently degrading.
type Option func(*settings) error

// islandSettings carries the island-model topology when WithIslands
// is used.
type islandSettings struct {
	islands           int
	migrationInterval int
	migrants          int
}

// settings is the resolved option set. Zero values mean "paper
// default" and are filled in against the dataset at Fit time (the
// window width D, and an EMax resolved from the data, live there —
// neither is known before data arrives).
type settings struct {
	horizon     int
	popSize     int
	generations int
	seed        int64
	seedSet     bool
	emax        float64
	parallelism int

	multiRun       int
	coverageTarget float64

	islands *islandSettings

	engine         bool
	engineExplicit bool
	slidingWin     int
	remote         []string

	progress      func(Progress) bool
	progressEvery int

	telemetry *Telemetry
}

// WithHorizon declares the prediction horizon τ the Forecaster
// expects. It is a guardrail, not a windowing knob: the horizon is
// fixed when the dataset is built (LoadCSV, Window, Embed, Split),
// and Fit fails with ErrOption when the dataset's horizon differs
// from the declared one. Unset, any dataset horizon is accepted.
func WithHorizon(h int) Option {
	return func(s *settings) error {
		if h < 1 {
			return fmt.Errorf("%w: WithHorizon(%d) must be at least 1", ErrOption, h)
		}
		s.horizon = h
		return nil
	}
}

// WithGenerations sets the steady-state generations each execution
// spends (the paper's full protocol uses 75,000; the default is a
// laptop-scale 20,000).
func WithGenerations(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("%w: WithGenerations(%d) must be non-negative", ErrOption, n)
		}
		s.generations = n
		return nil
	}
}

// WithPopulation sets the number of rules per population (the paper
// uses 100, the default).
func WithPopulation(n int) Option {
	return func(s *settings) error {
		if n < 2 {
			return fmt.Errorf("%w: WithPopulation(%d) must be at least 2", ErrOption, n)
		}
		s.popSize = n
		return nil
	}
}

// WithSeed fixes the RNG seed. Every run is deterministic for a fixed
// seed at any parallelism or number of shard servers; the default
// seed is 1.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.seed = seed
		s.seedSet = true
		return nil
	}
}

// WithEMax sets the paper's EMAX — the maximum residual a viable rule
// may have — as an absolute value. When unset it is resolved against
// the training data (10% of the target span), the core default.
func WithEMax(emax float64) Option {
	return func(s *settings) error {
		if emax < 0 {
			return fmt.Errorf("%w: WithEMax(%v) must be non-negative", ErrOption, emax)
		}
		s.emax = emax
		return nil
	}
}

// WithParallelism bounds how many executions (multi-run) or islands
// evolve concurrently (0, the default, means GOMAXPROCS). A pure
// speed knob: seeds are split deterministically, so results are
// identical for any parallelism degree.
func WithParallelism(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("%w: WithParallelism(%d) must be non-negative", ErrOption, n)
		}
		s.parallelism = n
		return nil
	}
}

// WithMultiRun accumulates up to k independent executions into one
// rule system — the paper's §3.4 outer loop. Combine with
// WithCoverageTarget to stop early once training coverage is reached.
// Default k=1 (a single execution).
func WithMultiRun(k int) Option {
	return func(s *settings) error {
		if k < 1 {
			return fmt.Errorf("%w: WithMultiRun(%d) must be at least 1", ErrOption, k)
		}
		s.multiRun = k
		return nil
	}
}

// WithCoverageTarget stops the multi-run accumulation once the merged
// system covers this fraction of the training patterns (e.g. 0.95).
// Unset, every execution requested by WithMultiRun runs.
func WithCoverageTarget(c float64) Option {
	return func(s *settings) error {
		if c <= 0 || c > 1 {
			return fmt.Errorf("%w: WithCoverageTarget(%v) outside (0,1]", ErrOption, c)
		}
		s.coverageTarget = c
		return nil
	}
}

// WithIslands evolves n concurrent populations that exchange their
// best `migrants` rules around a ring every `migrationInterval`
// generations, instead of fully independent executions. Mutually
// exclusive with WithMultiRun.
func WithIslands(n, migrationInterval, migrants int) Option {
	return func(s *settings) error {
		if n < 2 {
			return fmt.Errorf("%w: WithIslands(%d, …) needs at least 2 islands", ErrOption, n)
		}
		if migrationInterval < 1 {
			return fmt.Errorf("%w: WithIslands migration interval %d must be positive", ErrOption, migrationInterval)
		}
		if migrants < 1 {
			return fmt.Errorf("%w: WithIslands migrants %d must be positive", ErrOption, migrants)
		}
		s.islands = &islandSettings{islands: n, migrationInterval: migrationInterval, migrants: migrants}
		return nil
	}
}

// WithEngine trains through the lifecycle engine (internal/engine):
// one match index over a training store that streaming
// (Append/Evict) can grow and shrink. Results are bit-identical to
// the plain single-index path. The shards argument is ignored (it
// stays for perfbench, which passes one) but must not be negative;
// pass 0.
func WithEngine(shards int) Option {
	return func(s *settings) error {
		if shards < 0 {
			return fmt.Errorf("%w: WithEngine(%d) must be non-negative", ErrOption, shards)
		}
		s.engine = true
		s.engineExplicit = true
		return nil
	}
}

// WithRemoteCluster routes every rule evaluation through a cluster of
// shard servers (cmd/shardserver) instead of the in-process engine:
// Fit scatters the training set across the servers (contiguous
// slices, in row order), whole generations
// are matched by scatter/gather RPCs, and the streaming verbs
// (Append/Evict, sliding windows) decompose into per-server
// mutations. Results are bit-identical to the in-process paths for a
// fixed seed — distribution is purely a capacity knob.
//
// The Forecaster becomes the cluster's single writer; no other client
// may mutate the same servers. A lost server surfaces as an error
// wrapping ErrRemote from Fit/Append (never a hang, never silently
// wrong rules); the next Fit dials a fresh cluster. Call Close to
// release the connections when done. Mutually exclusive with
// WithEngine; WithSlidingWindow composes with it.
func WithRemoteCluster(addrs ...string) Option {
	return func(s *settings) error {
		if len(addrs) == 0 {
			return fmt.Errorf("%w: WithRemoteCluster needs at least one server address", ErrOption)
		}
		for _, a := range addrs {
			if a == "" {
				return fmt.Errorf("%w: WithRemoteCluster with an empty server address", ErrOption)
			}
		}
		s.remote = append([]string(nil), addrs...)
		return nil
	}
}

// WithSlidingWindow caps the training set at the newest n patterns:
// Fit trims its dataset to the window, and every Append evicts
// whatever the new data pushes out.
// Implies WithEngine (or composes with WithRemoteCluster) — the
// window is a lifecycle-store feature.
func WithSlidingWindow(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("%w: WithSlidingWindow(%d) must be at least 1", ErrOption, n)
		}
		s.engine = true
		s.slidingWin = n
		return nil
	}
}

// WithSharedCache does nothing: every evaluator keeps its own result
// cache, and nothing is shared across executions, islands or refits.
//
// Deprecated: kept only so the end-to-end benchmark (perfbench), which
// still passes it, keeps compiling; drop it from new code.
func WithSharedCache() Option {
	return func(*settings) error { return nil }
}

// WithProgress registers a callback observing the evolution: it fires
// every `every` generations from each execution (serialized — never
// two calls at once), and after every migration epoch of an island
// run. Returning false stops that execution (or the island run)
// early; the best-so-far rules still enter the fitted system.
func WithProgress(every int, fn func(Progress) bool) Option {
	return func(s *settings) error {
		if fn == nil {
			return fmt.Errorf("%w: WithProgress callback must be non-nil", ErrOption)
		}
		if every < 1 {
			return fmt.Errorf("%w: WithProgress every=%d must be positive", ErrOption, every)
		}
		s.progress = fn
		s.progressEvery = every
		return nil
	}
}

// validate cross-checks the resolved option set.
func (s *settings) validate() error {
	if s.islands != nil && s.multiRun > 0 {
		return fmt.Errorf("%w: WithIslands and WithMultiRun are mutually exclusive", ErrOption)
	}
	if len(s.remote) > 0 && s.engineExplicit {
		return fmt.Errorf("%w: WithRemoteCluster and WithEngine are mutually exclusive (the cluster's servers each run an engine over their slice)", ErrOption)
	}
	if s.islands != nil && s.popSize > 0 && s.islands.migrants >= s.popSize {
		return fmt.Errorf("%w: WithIslands migrants %d must be smaller than the population (%d)", ErrOption, s.islands.migrants, s.popSize)
	}
	return nil
}
