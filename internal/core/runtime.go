package core

import (
	"fmt"

	"repro/internal/obs"
)

// Runtime collects the execution-machinery knobs of a run — how fast
// it goes, never what it computes. Every field is a pure speed knob:
// any Runtime produces results bit-identical to the zero value, which
// is also always valid and means "self-contained sequential
// execution". Splitting these out of Config keeps the
// paper's hyperparameters — the fields that DO change results — in
// one struct that can be hashed, compared and serialized on its own.
type Runtime struct {
	// Workers bounds the goroutines used for batch regressions and
	// reference scans; 0 = GOMAXPROCS.
	Workers int

	// Backend answers every match query of the run. Nil — or a backend
	// built over a different dataset — makes each execution build its
	// own MatchIndex; a shared *MatchIndex spares executions over the
	// same dataset (multi-run waves, islands) that build, and the
	// sharded engine (internal/engine) or remote cluster
	// (internal/remote) spread the queries over shards. Every backend
	// returns exact matched sets, so results are bit-identical.
	//
	// A backend may additionally be a lifecycle-managed Store
	// (appends, deletes, sliding windows). Every mutation bumps the
	// backend's epoch, which every evaluation-cache key embeds, so a
	// result computed against an older snapshot can never be served.
	Backend Backend

	// Cache overrides the private result cache each evaluator keeps,
	// sharing one across the run's executions. Only the end-to-end
	// benchmark (perfbench) sets it; nothing else in the repository
	// shares a cache, and the field stays until that benchmark drops
	// it. Keys embed the data epoch and evaluator parameters, so
	// sharing never changes results. Valid only together with Backend
	// (see EvalOptions.Cache): without the backend's dataset identity
	// and epoch, a shared store could leak results across datasets —
	// Validate rejects the pairing.
	Cache *ResultCache

	// Telemetry optionally attaches a metrics registry: per-generation
	// durations, evaluations computed vs cache-served, and the
	// best-of-run trajectory, plus trace events when the registry has a
	// tracer. Purely observational — results are bit-identical with or
	// without it, which is why it lives in Runtime and not Config.
	Telemetry *obs.Registry
}

// Validate checks the runtime for consistency. A Cache without a
// Backend is rejected rather than silently ignored: shared cache keys
// carry no dataset identity of their own — it is the backend (same
// dataset by the sharing predicate, epoch-stamped against mutations)
// that scopes them, so accepting the pairing would either leak results
// across datasets or, as before this check existed, quietly drop the
// cache the caller asked for.
func (r *Runtime) Validate() error {
	if r.Workers < 0 {
		return fmt.Errorf("%w: Workers=%d must be non-negative", ErrConfig, r.Workers)
	}
	if r.Cache != nil && r.Backend == nil {
		return fmt.Errorf("%w: Cache requires a Backend (shared cache keys are scoped by the backend's dataset identity and epoch)", ErrConfig)
	}
	return nil
}
