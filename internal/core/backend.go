package core

import (
	"context"

	"repro/internal/linalg"
	"repro/internal/series"
)

// Backend is the evaluator's one match path: whatever answers "which
// training patterns does this rule match". A MatchIndex is the default
// (every Evaluator given none builds one); the sharded engine in
// internal/engine and the remote cluster in internal/remote implement
// it too. Core stays the single owner of the regression and fitness
// math, so any backend that returns exact matched sets yields
// bit-identical evaluations.
//
// Implementations must be safe for concurrent use: one backend is
// shared by every Evaluator of a multi-run wave or island ring.
type Backend interface {
	// Data returns the training dataset the backend answers for. An
	// evaluator only adopts a backend whose Data is the very dataset
	// it scores against (pointer identity).
	Data() *series.Dataset

	// Epoch returns the backend's data epoch. It increments whenever
	// the underlying dataset changes (a Store's mutations), and is mixed
	// into every evaluation-cache key so results computed against an
	// older snapshot can never be served afterwards.
	Epoch() uint64

	// MatchIndices returns the rule's matched training-pattern
	// indices — the paper's C_R(S) — in ascending order, exactly as
	// Evaluator.MatchIndicesScan would.
	MatchIndices(r *Rule) []int

	// MatchBatch answers one whole generation of rules in a single
	// scheduling pass; out[i] corresponds to rules[i] and each entry
	// equals MatchIndices(rules[i]). The context bounds the parallel
	// fan-out: when it is cancelled the backend must stop scheduling
	// promptly, leave no goroutine behind, and return — the result is
	// then incomplete and the caller must discard it (the Evaluator
	// checks ctx.Err() before using or caching anything).
	MatchBatch(ctx context.Context, rules []*Rule) [][]int
}

// Store widens Backend into a lifecycle-managed training store: data
// can leave as well as arrive, so streaming workloads keep a sliding
// window instead of a grow-only set. Two implementations speak the
// contract today: the in-process sharded engine (internal/engine) and
// the distributed scatter/gather client over shard servers
// (internal/remote), which takes the same shard layout multi-node
// while staying bit-identical — the evaluator cannot tell them apart.
//
// Every mutation that changes the store must bump Epoch before it
// returns. Evaluation-cache keys embed the epoch, so a result computed
// against any earlier snapshot can never be served afterwards; that
// is the whole invalidation story, and a store never drops cache
// entries itself. Mutations must not run concurrently with evaluation
// (the same exclusion Append already requires); match queries remain
// safe with each other.
//
// Rows leave physically: when Delete or Window returns, Data() no
// longer holds the evicted rows and no matched set can name them.
type Store interface {
	Backend

	// Append adds streaming patterns at the tail of the store,
	// assigning each a fresh ascending RowID.
	Append(inputs [][]float64, targets []float64) error

	// Delete removes the rows with the given stable ids and returns
	// how many it removed. Unknown or repeated ids are ignored.
	Delete(ids []series.RowID) int

	// Window keeps only the newest n rows, removing every older one,
	// and returns the number evicted — the sliding-window primitive.
	// Window(0) clears the store.
	Window(n int) int

	// Compact does nothing and returns 0 on every store.
	//
	// Deprecated: Delete and Window already remove rows physically.
	// The verb stays only because the end-to-end benchmark
	// (perfbench) still calls it.
	Compact() int

	// LiveLen returns the number of rows in the store: Data().Len().
	LiveLen() int
}

// BackendCtx is an optional interface a Backend implements when its
// single-rule match path can make use of the caller's context —
// cancellation and trace-span propagation for a networked backend
// (internal/remote). The evaluator prefers MatchIndicesCtx over
// MatchIndices whenever it holds a context; results must be identical
// to MatchIndices barring cancellation (the evaluator discards the
// result when ctx was cancelled mid-query). In-process backends have
// nothing to gain and simply do not implement the interface.
type BackendCtx interface {
	MatchIndicesCtx(ctx context.Context, r *Rule) []int
}

// matchAppender is the optional side of a Backend that can append a
// matched set into the caller's buffer: AppendMatches(dst, r) appends
// exactly MatchIndices(r) to dst. The Evaluator asserts it once at
// construction and then matches into its pooled scratch, so a
// steady-state evaluation allocates no matched set. MatchIndex and the
// sharded engine implement it. It is not part of Backend: a wrapper
// that embeds a Backend or Store to time or replay its match calls
// must not have the method promoted past it.
type matchAppender interface {
	AppendMatches(dst []int, r *Rule) []int
}

// BackendHealth is an optional interface a Backend implements when
// its match path can fail out-of-band — a network transport losing a
// shard server mid-run. BackendErr returns the first such failure
// (sticky: once non-nil it stays non-nil) or nil while the backend is
// healthy. MatchIndices/MatchBatch cannot return errors, so a faulted
// backend answers with incomplete sets; the evaluator therefore
// checks BackendErr after every match query and refuses to cache or
// apply anything computed from a faulted backend, and the run loops
// (Execution.Run, RunIslands) surface the error instead of silently
// evolving against wrong matched sets. In-process backends never
// fault and simply do not implement the interface.
type BackendHealth interface {
	BackendErr() error
}

// EvalResult is one memoized rule evaluation. Fit is stored as a
// private clone; apply hands out fresh clones so no two rules ever
// share consequent storage.
type EvalResult struct {
	Fit        *linalg.LinearFit
	Prediction float64
	Error      float64
	Matches    int
	Fitness    float64
}

// apply copies the cached result onto the rule, mirroring
// Evaluator.Evaluate exactly: a zero-match rule keeps its prior
// Prediction (initialization sets bin centers used by crowding).
func (c *EvalResult) apply(r *Rule) {
	r.Matches = c.Matches
	r.Error = c.Error
	r.Fitness = c.Fitness
	if c.Fit == nil {
		r.Fit = nil
		return
	}
	r.Fit = c.Fit.Clone()
	r.Prediction = c.Prediction
}

// resultOf snapshots a just-evaluated rule into a cacheable result.
func resultOf(r *Rule) *EvalResult {
	c := &EvalResult{
		Prediction: r.Prediction,
		Error:      r.Error,
		Matches:    r.Matches,
		Fitness:    r.Fitness,
	}
	if r.Fit != nil {
		c.Fit = r.Fit.Clone()
	}
	return c
}
