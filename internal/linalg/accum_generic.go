//go:build !amd64

package linalg

// accumBlock4 adds the contributions of the four observation rows
// packed in blk (row r is blk[r*d:(r+1)*d], its target ys[r], d = p-1)
// to the normal equations, one row at a time in row order. All-zero
// rows contribute nothing, which is how a short final block is padded.
func accumBlock4(xtx, xty, blk, ys []float64, p int) {
	d := p - 1
	for r := 0; r < 4; r++ {
		accumRow(xtx, xty, blk[r*d:(r+1)*d], ys[r], p)
	}
}

// accumRow adds one observation row's contribution to the normal
// equations: for every gene a with row[a] != 0 it accumulates
// xty[a] += row[a]*yi, the upper-triangle run
// xtx[a*p+a : a*p+d] += row[a]*row[a:], and the implicit intercept
// column xtx[a*p+d] += row[a], where d = len(row) and p = d+1. The
// caller contributes the intercept row itself (xty[d] += yi,
// xtx[d*p+d]++). The row[a] == 0 skip mirrors LeastSquares exactly —
// it is part of the bit-for-bit contract, not just a fast path.
func accumRow(xtx, xty, row []float64, yi float64, p int) {
	d := len(row)
	for a := 0; a < d; a++ {
		ra := row[a]
		if ra == 0 {
			continue
		}
		xty[a] += ra * yi
		dst := xtx[a*p : a*p+d+1]
		ur := row[a:]
		ud := dst[a : a+len(ur)]
		for b, rb := range ur {
			ud[b] += ra * rb
		}
		dst[d] += ra // times the implicit 1
	}
}
