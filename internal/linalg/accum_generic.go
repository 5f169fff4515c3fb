//go:build !amd64

package linalg

import "math"

// accumBlock4 adds the contributions of the four observation rows
// packed in blk (row r is blk[r*p:(r+1)*p], its target ys[r]) to the
// normal equations, one row at a time in row order. A packed row is
// the design-matrix row [x 1]: the observation's d = p-1 inputs and a
// trailing 1 for the intercept. All-zero rows contribute nothing,
// which is how a short final block is padded.
func accumBlock4(xtx, xty, blk, ys []float64, p int) {
	for r := 0; r < 4; r++ {
		accumRow(xtx, xty, blk[r*p:(r+1)*p], ys[r], p)
	}
}

// accumRow adds one packed row's contribution to the normal equations:
// for every a with row[a] != 0 it accumulates xty[a] += row[a]*yi and
// the upper-triangle run xtx[a*p+a : a*p+p] += row[a]*row[a:]. With
// the trailing 1 the run's last cell is the intercept column, and the
// intercept line a = p-1 counts the row. The row[a] == 0 skip mirrors
// LeastSquares exactly — it is part of the bit-for-bit contract, not
// just a fast path — and 1·x is x exactly, so the packed intercept
// adds what the design matrix's column of ones would.
func accumRow(xtx, xty, row []float64, yi float64, p int) {
	for a, ra := range row {
		if ra == 0 {
			continue
		}
		xty[a] += ra * yi
		ud := xtx[a*p+a : a*p+p]
		for b, rb := range row[a:] {
			ud[b] += ra * rb
		}
	}
}

// residualPass is ResidualPass's loop over rows of width len(coef):
// four rows at a time, each accumulated in gene order from +0 with the
// intercept added last (Predict's order of operations), then the short
// final block row by row, folding every row in row order.
func residualPass(coef []float64, xs [][]float64, ys []float64, icpt float64) (maxAbs, sum float64) {
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		r0, r1, r2, r3 := xs[k][:len(coef)], xs[k+1][:len(coef)], xs[k+2][:len(coef)], xs[k+3][:len(coef)]
		var p0, p1, p2, p3 float64
		for j, c := range coef {
			p0 += c * r0[j]
			p1 += c * r1[j]
			p2 += c * r2[j]
			p3 += c * r3[j]
		}
		maxAbs, sum = foldResidual(maxAbs, sum, ys[k], p0+icpt)
		maxAbs, sum = foldResidual(maxAbs, sum, ys[k+1], p1+icpt)
		maxAbs, sum = foldResidual(maxAbs, sum, ys[k+2], p2+icpt)
		maxAbs, sum = foldResidual(maxAbs, sum, ys[k+3], p3+icpt)
	}
	for ; k < len(xs); k++ {
		maxAbs, sum = foldResidual(maxAbs, sum, ys[k], Dot(coef, xs[k])+icpt)
	}
	return maxAbs, sum
}

// foldResidual folds one row's target y and prediction into the
// running maximum absolute residual and prediction sum.
func foldResidual(maxAbs, sum, y, pred float64) (float64, float64) {
	if res := math.Abs(y - pred); res > maxAbs {
		maxAbs = res
	}
	return maxAbs, sum + pred
}
