//go:build !amd64

package linalg

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
