// Package core is the context-discipline fixture: conjured root
// contexts and ctx-less callers of the evaluation verbs.
package core

import "context"

// Evaluator stands in for the real evaluation data plane.
type Evaluator struct{}

func (Evaluator) Evaluate(ctx context.Context, r int)              {}
func (Evaluator) EvaluateAll(ctx context.Context, pop []int) error { return nil }
func (Evaluator) MatchBatch(ctx context.Context, rules []int) [][]int {
	return nil
}

// Train takes and passes a context — the blessed shape.
func Train(ctx context.Context, e Evaluator, pop []int) error {
	return e.EvaluateAll(ctx, pop)
}

// TrainDetached conjures a root context mid-stack.
func TrainDetached(e Evaluator, pop []int) error {
	return e.EvaluateAll(context.Background(), pop) // want "context.Background outside func main severs the cancellation chain" // want "TrainDetached calls EvaluateAll but takes no context.Context"
}

// Match calls an evaluation verb without taking a context at all.
func Match(e Evaluator, rules []int) [][]int {
	ctx := context.TODO()           // want "context.TODO outside func main severs the cancellation chain"
	return e.MatchBatch(ctx, rules) // want "Match calls MatchBatch but takes no context.Context"
}

// Score evaluates one rule without taking a context: the single-rule
// entry point needs one as much as the batch verbs do.
func Score(e Evaluator, r int) {
	e.Evaluate(context.TODO(), r) // want "context.TODO outside func main severs the cancellation chain" // want "Score calls Evaluate but takes no context.Context"
}
