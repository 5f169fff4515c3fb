package linalg

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// exactNaNPayloads is whether the kernel comparison holds NaN payloads
// to the bit. On amd64 the block kernels are assembly whose operand
// order is fixed, and refAccumRow models the propagation rule SSE2 and
// AVX-512 share, so it does; elsewhere the portable kernel's operand order is the compiler's
// choice, and any NaN matches any NaN.
const exactNaNPayloads = runtime.GOARCH == "amd64"

// quietNaN sets the quiet bit, as SSE2 arithmetic does to a signalling
// NaN operand it propagates.
func quietNaN(x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) | 1<<51)
}

// sse2 models one SSE2 arithmetic instruction whose first source (the
// destination register) is a and second is b, with r the IEEE-754
// result: a NaN result carries the first NaN operand's payload,
// quietened. An AVX-512 instruction propagates by its first source
// operand the same way.
func sse2(a, b, r float64) float64 {
	switch {
	case a != a:
		return quietNaN(a)
	case b != b:
		return quietNaN(b)
	}
	return r
}

func sseMul(a, b float64) float64 { return sse2(a, b, a*b) }
func sseAdd(a, b float64) float64 { return sse2(a, b, a+b) }

// refAccumRow is the per-row contract of accum_generic.go's accumRow,
// kept as the reference the block kernel is checked against. Products
// are formed row[b]*row[a] (row[a]*y for Xᵀy) and the accumulator is
// the first addend, exactly as the per-row kernel always did.
func refAccumRow(xtx, xty, row []float64, yi float64, p int) {
	d := len(row)
	for a := 0; a < d; a++ {
		ra := row[a]
		if ra == 0 {
			continue
		}
		xty[a] = sseAdd(xty[a], sseMul(ra, yi))
		for b := a; b < d; b++ {
			xtx[a*p+b] = sseAdd(xtx[a*p+b], sseMul(row[b], ra))
		}
		xtx[a*p+d] = sseAdd(xtx[a*p+d], ra)
	}
}

// refNormal accumulates the full normal equations row by row through
// refAccumRow, intercept row included.
func refNormal(xs [][]float64, y []float64, d int) (xtx, xty []float64) {
	p := d + 1
	xtx = make([]float64, p*p)
	xty = make([]float64, p)
	for i, row := range xs {
		refAccumRow(xtx, xty, row, y[i], p)
		xty[d] = sseAdd(xty[d], y[i])
		xtx[d*p+d] = sseAdd(xtx[d*p+d], 1)
	}
	return xtx, xty
}

func sameBits(a, b float64) bool {
	if !exactNaNPayloads && a != a && b != b {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkNormal accumulates xs, y through sc and compares the upper
// triangle of XᵀX and all of Xᵀy with the per-row reference, cell by
// cell at the bit level.
func checkNormal(t *testing.T, xs [][]float64, y []float64, d int, sc *FitScratch) {
	t.Helper()
	xtx, xty, err := sc.accumulate(xs, y, d)
	if err != nil {
		t.Fatal(err)
	}
	wtx, wty := refNormal(xs, y, d)
	p := d + 1
	for a := 0; a < p; a++ {
		if !sameBits(xty[a], wty[a]) {
			t.Fatalf("d=%d n=%d: xty[%d] = %v (%#x), per-row %v (%#x)", d, len(xs), a,
				xty[a], math.Float64bits(xty[a]), wty[a], math.Float64bits(wty[a]))
		}
		for b := a; b < p; b++ {
			if got, want := xtx[a*p+b], wtx[a*p+b]; !sameBits(got, want) {
				t.Fatalf("d=%d n=%d: xtx[%d,%d] = %v (%#x), per-row %v (%#x)", d, len(xs), a, b,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// specialValue draws the IEEE-754 edge cases: signed zeros, NaNs with
// assorted payloads (quiet and signalling, either sign), infinities and
// denormals.
func specialValue(src *rng.Source) float64 {
	payload := uint64(src.Intn(1<<30)) + 1
	switch src.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(0x7ff8000000000000 | payload) // quiet NaN
	case 3:
		return math.Float64frombits(0xfff0000000000000 | payload) // signalling NaN
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.Float64frombits(payload) // positive denormal
	default:
		return -math.Float64frombits(payload << 20) // negative denormal
	}
}

// kernelCase builds an n×d problem of ordinary values. With zeros set,
// each block of four rows gets one exact ±0 in a single row, so the
// kernel's row-by-row fallback runs for that line alone; specials is
// the per-entry probability of an IEEE-754 edge case.
func kernelCase(src *rng.Source, n, d int, zeros bool, specials float64) ([][]float64, []float64) {
	xs := make([][]float64, n)
	y := make([]float64, n)
	for i := range xs {
		row := make([]float64, d)
		for j := range row {
			row[j] = src.Uniform(-3, 3)
			if src.Bool(specials) {
				row[j] = specialValue(src)
			}
		}
		xs[i] = row
		y[i] = src.Uniform(-3, 3)
		if src.Bool(specials) {
			y[i] = specialValue(src)
		}
	}
	if zeros {
		for i := 0; i < n; i += 4 {
			r := i + src.Intn(min(4, n-i))
			xs[r][src.Intn(d)] = math.Copysign(0, float64(src.Intn(2))-0.5)
		}
	}
	return xs, y
}

// TestBlockKernelMatchesPerRowContract pins every block kernel the
// host runs to the per-row contract bit for bit: every width up to 40
// genes (past the Venice D=24 shape, and below eight cells, where a
// line's whole run is the AVX-512 kernel's masked tail), every row
// count mod 4 (the padded final block), up to a few thousand rows,
// with a lone ±0 in one row of a block, in each row and gene of a
// block in turn, NaN payloads, infinities and denormals — all through
// one dirty, reused scratch.
func TestBlockKernelMatchesPerRowContract(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := rng.New(12)
		var sc FitScratch
		check := func(n, d int, zeros bool, specials float64) {
			xs, y := kernelCase(src, n, d, zeros, specials)
			checkNormal(t, xs, y, d, &sc)
		}
		for d := 1; d <= 40; d++ {
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 61, 62, 63, 64} {
				check(n, d, false, 0)
				check(n, d, true, 0)
				check(n, d, true, 0.05)
				check(n, d, false, 0.3)
			}
			for r := 0; r < 4; r++ {
				for a := 0; a < d; a++ {
					xs, y := kernelCase(src, 4, d, false, 0)
					xs[r][a] = math.Copysign(0, float64(a%2)-0.5)
					checkNormal(t, xs, y, d, &sc)
				}
			}
		}
		for _, d := range []int{1, 4, 7, 24, 32} {
			for n := 2997; n <= 3000; n++ {
				check(n, d, true, 0.002)
			}
		}
	})
}

// decodeFitCase turns fuzz input into a fit problem: the first byte
// picks d in [1,40], the rest is read as little-endian float64s, d
// inputs then the target per row. ok is false when no row fits.
func decodeFitCase(data []byte) (xs [][]float64, y []float64, d int, ok bool) {
	if len(data) == 0 {
		return nil, nil, 0, false
	}
	d = 1 + int(data[0])%40
	vals := make([]float64, (len(data)-1)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:]))
	}
	n := len(vals) / (d + 1)
	if n == 0 {
		return nil, nil, 0, false
	}
	for i := 0; i < n; i++ {
		row := vals[i*(d+1) : i*(d+1)+d+1]
		xs = append(xs, row[:d:d])
		y = append(y, row[d])
	}
	return xs, y, d, true
}

// encodeFitCase is decodeFitCase's inverse, for seeding the corpus.
func encodeFitCase(xs [][]float64, y []float64, d int) []byte {
	out := []byte{byte(d - 1)}
	put := func(v float64) { out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v)) }
	for i, row := range xs {
		for _, v := range row {
			put(v)
		}
		put(y[i])
	}
	return out
}

func allFinite(xs [][]float64, y []float64) bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for i, row := range xs {
		for _, v := range row {
			if !finite(v) {
				return false
			}
		}
		if !finite(y[i]) {
			return false
		}
	}
	return true
}

// FuzzFitAffineScratch checks every block kernel the host runs
// against the per-row contract on arbitrary bit patterns, and — where
// every input is finite — the whole scratch fit against FitAffine's
// materialized path. The seeds cover the cases the kernel's exactness argument
// rests on: a lone ±0 in one row of a block, NaN payloads, infinities,
// denormals and every row count mod 4.
func FuzzFitAffineScratch(f *testing.F) {
	src := rng.New(3)
	seed := func(n, d int, zeros bool, specials float64) {
		xs, y := kernelCase(src, n, d, zeros, specials)
		f.Add(encodeFitCase(xs, y, d))
	}
	for n := 1; n <= 8; n++ {
		seed(n, 3, true, 0)
	}
	seed(7, 24, true, 0) // the Venice width
	seed(9, 5, false, 0.4)
	seed(6, 32, true, 0.1)
	seed(5, 40, true, 0.05) // five full ZMM runs on line 0
	nan := math.Float64frombits(0x7ff8000000000abc)
	snan := math.Float64frombits(0xfff0000000000123)
	f.Add(encodeFitCase(
		[][]float64{{nan, 1}, {2, snan}, {math.Inf(1), 0}, {math.Copysign(0, -1), 5e-324}},
		[]float64{snan, nan, 1, math.Inf(-1)}, 2))
	kernels := hostKernels(f)
	var sc FitScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		xs, y, d, ok := decodeFitCase(data)
		if !ok {
			return
		}
		finite := allFinite(xs, y)
		var want *LinearFit
		var errW error
		if finite {
			want, errW = FitAffine(xs, y, 1e-8)
		}
		for _, k := range kernels {
			restore := k.force()
			checkNormal(t, xs, y, d, &sc)
			got, errS := FitAffineScratch(xs, y, 1e-8, &sc)
			restore()
			if !finite {
				continue
			}
			if (errS == nil) != (errW == nil) {
				t.Fatalf("%s: error mismatch: scratch %v, FitAffine %v", k.name, errS, errW)
			}
			if errS == nil && !fitsBitIdentical(got, want) {
				t.Fatalf("%s: scratch fit %+v, FitAffine %+v", k.name, got, want)
			}
		}
	})
}
