//go:build amd64

package linalg

// accumBlock4 adds four packed observation rows' contributions to the
// upper triangle of the normal equations (see accum_generic.go for the
// reference implementation and the exact contract). It is the SSE2
// kernel, which every amd64 CPU runs, unless p >= wideMinP: then it
// jumps to accumBlock4AVX512. Both kernels load each XᵀX/Xᵀy cell
// once per block, add the four rows' products to it in row order, and
// store it once, where a per-row kernel would load and store every
// cell once per row. Each cell still receives exactly the per-row
// loop's operations in the same order: a multiply, then an add, each
// singly rounded and never fused, with the product formed as
// row[b]*row[a] (row[a]*y for Xᵀy) and the accumulator as the first
// addend, so even NaN payloads propagate as they would row by row.
// A row with row[a] == 0 (±0) adds nothing to line a, which keeps the
// skip exact: the SSE2 kernel runs such a line row by row, the
// AVX-512 kernel masks that row's adds; lines are independent
// accumulators either way.
//
//go:noescape
func accumBlock4(xtx, xty, blk, ys []float64, p int)

// accumBlock4AVX512 is accumBlock4 eight cells per ZMM register:
// every gene line's run, and Xᵀy, goes eight cells at a time with a
// masked tail, and four merge-masked adds per eight cells (one mask
// per row, set where row[a] != 0) make the zero skip exact without a
// branch. accumBlock4 jumps here; it requires AVX-512F.
//
//go:noescape
func accumBlock4AVX512(xtx, xty, blk, ys []float64, p int)

// avx512MinP keeps short gene lines on SSE2: on a 2-vCPU Xeon the
// AVX-512 kernel lost to SSE2 at D=4 and D=5 (p = 5 and 6; D=4 is the
// Mackey-Glass shape) and won from D=6 on.
const avx512MinP = 7

// init points wideMinP at the AVX-512F kernel when CPUID reports
// AVX-512F and XGETBV shows that the OS saves the opmask and ZMM
// state; otherwise every block stays on SSE2.
func init() {
	if hasAVX512F() {
		wideMinP = avx512MinP
	}
}

// hasAVX512F reports whether the CPU implements AVX-512F and the OS
// has enabled the state it needs (XCR0: SSE, AVX, opmask, ZMM_Hi256
// and Hi16_ZMM).
func hasAVX512F() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f = 1 << 16
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx512f != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0. Call it only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// residualPass is ResidualPass's loop over rows whose widths the
// caller has checked to be len(coef) (see accum_generic.go for the
// reference implementation). Rows go four at a time, each in its own
// accumulator, with a final short block row by row. Each row receives
// exactly Predict's operations in Predict's order — per gene a
// multiply with the coefficient as first operand, then an add with the
// accumulator as first addend, each singly rounded and never fused,
// then the intercept added last — and the folds run in row order with
// the running sum as first addend, so even NaN payloads propagate as
// they do through a per-row Predict loop.
//
//go:noescape
func residualPass(coef []float64, xs [][]float64, ys []float64, icpt float64) (maxAbs, sum float64)
