//go:build race

package core_test

// raceEnabled reports whether the race detector is active. Under race
// instrumentation sync.Pool deliberately drops a fraction of Put calls,
// so allocation assertions over pooled paths are skipped.
const raceEnabled = true
