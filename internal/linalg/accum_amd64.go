//go:build amd64

package linalg

// accumBlock4 adds four packed observation rows' contributions to the
// upper triangle of the normal equations (see accum_generic.go for the
// reference implementation and the exact contract). The amd64 version
// loads each XᵀX/Xᵀy cell once per block, adds the four rows' products
// to it in row order, and stores it once, where a per-row kernel would
// load and store every cell once per row. Each cell still receives
// exactly the per-row loop's operations in the same order: packed
// SSE2 MULPD/ADDPD, single-rounding and never FMA, with the product
// formed as row[b]*row[a] and the accumulator as the first addend (so
// even NaN payloads propagate as they would row by row). A gene line
// where any of the four rows has row[a] == 0 (±0) runs row by row,
// skipping those rows, which keeps the skip exact; lines are
// independent accumulators. SSE2 is in the amd64 baseline, so no
// feature detection is needed.
//
//go:noescape
func accumBlock4(xtx, xty, blk, ys []float64, p int)
