// Package parallel provides the goroutine-level runtime the rule
// system uses to exploit multicore machines: a chunked parallel for
// and a parallel fold (map-reduce over index ranges). All primitives
// are deterministic given deterministic work functions — parallelism
// never changes results, only wall time.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Workers returns the effective worker count: n if positive, otherwise
// GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0,n) using at most workers
// goroutines (0 → GOMAXPROCS). Iterations are distributed in
// contiguous chunks, which keeps per-chunk state cache-friendly for
// the dense scans the rule matcher performs.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(start, end)
	}
	wg.Wait()
}

// ForCtx is For with cooperative cancellation: each worker checks the
// context between iterations and stops claiming work once it is
// cancelled. ForCtx always waits for every worker to return — no
// goroutine outlives the call, cancelled or not — and returns
// ctx.Err(). On cancellation some iterations have simply not run;
// callers must treat their outputs as incomplete and discard them
// (results computed by iterations that DID run are complete and
// deterministic as usual).
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			fn(i)
		}
		return ctx.Err()
	}
	done := ctx.Done()
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				select {
				case <-done:
					return
				default:
				}
				fn(i)
			}
		}(start, end)
	}
	wg.Wait()
	return ctx.Err()
}

// Fold computes a parallel reduction over [0,n). Each worker folds its
// contiguous chunk with fold starting from zero(), and the per-chunk
// results are combined left-to-right with merge in chunk order, so the
// result is deterministic whenever merge is associative over the
// chunk decomposition (true for sums, counts, maxima, and slice
// appends — everything this repository folds).
func Fold[T any](n, workers int, zero func() T, fold func(acc T, i int) T, merge func(a, b T) T) T {
	if n <= 0 {
		return zero()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		acc := zero()
		for i := 0; i < n; i++ {
			acc = fold(acc, i)
		}
		return acc
	}
	chunk := (n + w - 1) / w
	nChunks := (n + chunk - 1) / chunk
	partials := make([]T, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			acc := zero()
			for i := lo; i < hi; i++ {
				acc = fold(acc, i)
			}
			partials[c] = acc
		}(c, lo, hi)
	}
	wg.Wait()
	out := partials[0]
	for _, p := range partials[1:] {
		out = merge(out, p)
	}
	return out
}
