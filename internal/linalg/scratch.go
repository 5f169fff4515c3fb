package linalg

import (
	"fmt"
	"math"
)

// FitScratch is the reusable normal-equation storage of
// FitAffineScratch: one fit's XᵀX, Xᵀy, Cholesky factor and solve
// vectors, grown on demand and retained across calls. The zero value
// is ready to use. A FitScratch must not be used concurrently; the
// evaluation engine keeps one per worker in a sync.Pool.
type FitScratch struct {
	xtx  []float64 // p×p normal matrix, row-major
	xty  []float64
	l    []float64 // p×p Cholesky factor (lower triangle written)
	y    []float64 // forward-substitution intermediate
	beta []float64
	blk  []float64  // 4×p block of packed design rows [x 1]
	ys   [4]float64 // the packed rows' targets
}

// growZero resizes *buf to n with every element zeroed, retaining
// capacity across calls.
func growZero(buf *[]float64, n int) []float64 {
	s := *buf
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}

// grow resizes *buf to n without zeroing (for buffers that are fully
// overwritten before being read).
func grow(buf *[]float64, n int) []float64 {
	s := *buf
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}

// FitAffineScratch is FitAffine computing through caller-owned
// scratch: it accumulates the normal equations directly from the
// observation rows — the design matrix's trailing intercept column is
// implicit — so a fit's only allocations are the returned LinearFit
// and its coefficient slice.
//
// It performs the same floating-point operations in the same order as
// FitAffine's materialized-design path (x·1 and 1·y are exact in
// IEEE-754 arithmetic), so the two are bit-identical; the property
// tests in this package pin that equivalence.
func FitAffineScratch(xs [][]float64, y []float64, ridge float64, sc *FitScratch) (*LinearFit, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("linalg: FitAffine with no observations")
	}
	if len(xs) != len(y) {
		return nil, fmt.Errorf("%w: %d observations but %d targets", ErrShape, len(xs), len(y))
	}
	d := len(xs[0])
	p := d + 1
	xtx, xty, err := sc.accumulate(xs, y, d)
	if err != nil {
		return nil, err
	}
	// Mirror the upper triangle, then regularize the diagonal.
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			xtx[b*p+a] = xtx[a*p+b]
		}
	}
	if ridge > 0 {
		for a := 0; a < p; a++ {
			xtx[a*p+a] += ridge
		}
	}

	beta, ok := solveNormalScratch(xtx, xty, p, sc)
	if !ok {
		// Rare fallback, mirroring LeastSquares: Gaussian elimination
		// with partial pivoting over the (ridge-regularized) normal
		// matrix. Allocates, but only on pathological geometry.
		m := &Matrix{Rows: p, Cols: p, Data: xtx}
		var err error
		if beta, err = Solve(m, xty); err != nil {
			return nil, err
		}
	}
	coef := make([]float64, d)
	copy(coef, beta[:d])
	return &LinearFit{Coef: coef, Intercept: beta[d]}, nil
}

// wideMinP is the shortest packed row (p = d+1 cells) that
// accumBlock4 hands to the host's wide kernel. It is set once, at
// package init, on amd64 hosts with AVX-512F (see accum_amd64.go); it
// stays MaxInt where the host or the build has no wide kernel.
var wideMinP = math.MaxInt

// accumulate zeroes the scratch normal equations and adds every
// observation to their upper triangle, returning XᵀX (p×p, p = d+1)
// and Xᵀy. Rows are packed four at a time into sc.blk for the block
// kernel (see accum_amd64.s / accum_generic.go), each as the design
// row [x 1] with stride p: the trailing 1 makes the intercept column
// xtx[a*p+d] one more cell of gene line a, and the intercept line d
// counts the row. A short final block is padded with all-zero rows,
// which the kernel's row[a] == 0 skip drops exactly.
func (sc *FitScratch) accumulate(xs [][]float64, y []float64, d int) (xtx, xty []float64, err error) {
	p := d + 1
	xtx = growZero(&sc.xtx, p*p)
	xty = growZero(&sc.xty, p)
	blk := grow(&sc.blk, 4*p)
	for i := 0; i < len(xs); i += 4 {
		k := min(4, len(xs)-i)
		for r := 0; r < k; r++ {
			row := xs[i+r]
			if len(row) != d {
				return nil, nil, fmt.Errorf("%w: ragged observation %d", ErrShape, i+r)
			}
			copy(blk[r*p:], row)
			blk[r*p+d] = 1
			sc.ys[r] = y[i+r]
		}
		if k < 4 {
			clear(blk[k*p:])
			clear(sc.ys[k:])
		}
		accumBlock4(xtx, xty, blk, sc.ys[:], p)
	}
	return xtx, xty, nil
}

// solveNormalScratch runs the Cholesky factor-and-solve of the normal
// equations entirely in scratch storage, performing the identical
// operations (in order) as Cholesky + SolveCholesky.
func solveNormalScratch(xtx, xty []float64, p int, sc *FitScratch) ([]float64, bool) {
	l := grow(&sc.l, p*p)
	for i := 0; i < p; i++ {
		for j := 0; j <= i; j++ {
			sum := xtx[i*p+j]
			for k := 0; k < j; k++ {
				sum -= l[i*p+k] * l[j*p+k]
			}
			if i == j {
				if sum <= 0 {
					return nil, false
				}
				l[i*p+i] = math.Sqrt(sum)
			} else {
				l[i*p+j] = sum / l[j*p+j]
			}
		}
	}
	// Forward: L y = b. (The diagonal is sqrt of a positive number, so
	// the SolveCholesky zero-pivot branch is unreachable here.)
	y := grow(&sc.y, p)
	for i := 0; i < p; i++ {
		s := xty[i]
		for k := 0; k < i; k++ {
			s -= l[i*p+k] * y[k]
		}
		y[i] = s / l[i*p+i]
	}
	// Backward: Lᵀ x = y.
	x := grow(&sc.beta, p)
	for i := p - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < p; k++ {
			s -= l[k*p+i] * x[k]
		}
		x[i] = s / l[i*p+i]
	}
	return x, true
}
