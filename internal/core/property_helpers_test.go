package core

import (
	"context"

	"repro/internal/series"
)

// datasetFromValues windows raw values, returning nil when the series
// is too short — property tests treat that as a vacuous case.
func datasetFromValues(v []float64, d, horizon int) *series.Dataset {
	ds, err := series.Window(series.New("prop", v), d, horizon)
	if err != nil {
		return nil
	}
	return ds
}

// intSlicesIdentical reports exact extensional equality: same length,
// same elements in the same order, and agreement on nil-vs-non-nil
// for the empty case (the match contract returns nil for "none").
func intSlicesIdentical(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return (a == nil) == (b == nil)
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// intSlicesEqual is intSlicesIdentical without the nil check — for
// append-into variants, where an empty result legitimately aliases the
// caller's (possibly non-nil) destination.
func intSlicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stopAfter is a context whose Err turns to context.Canceled after its
// first n calls: a cancellation that lands mid-batch at a known rule.
type stopAfter struct {
	context.Context
	n int
}

func (c *stopAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// matchBatchAgrees checks MatchIndex.MatchBatch against the scan's
// sets want: a full batch answers every rule exactly, and a batch
// cancelled before rule k answers rules [0,k) exactly and leaves the
// rest nil.
func matchBatchAgrees(ix *MatchIndex, rules []*Rule, want [][]int, k int) bool {
	for i, got := range ix.MatchBatch(context.Background(), rules) {
		if !intSlicesIdentical(got, want[i]) {
			return false
		}
	}
	cut := ix.MatchBatch(&stopAfter{context.Background(), k}, rules)
	for i, got := range cut {
		if i < k && !intSlicesIdentical(got, want[i]) || i >= k && got != nil {
			return false
		}
	}
	return len(cut) == len(rules)
}
