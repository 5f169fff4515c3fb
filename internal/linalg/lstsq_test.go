package linalg

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestLeastSquaresExactLine(t *testing.T) {
	// y = 3x + 2 sampled without noise: design has [x, 1] columns.
	x := fromRows([][]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}})
	y := []float64{2, 5, 8, 11}
	beta, err := LeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(beta, []float64{3, 2}, 1e-10) {
		t.Fatalf("beta = %v, want [3 2]", beta)
	}
}

func TestLeastSquaresShapeError(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(3, 2), []float64{1, 2}, 0); err == nil {
		t.Fatal("mismatched targets accepted")
	}
}

func TestLeastSquaresRidgeHandlesUnderdetermined(t *testing.T) {
	// Two observations, three coefficients: singular without ridge.
	x := fromRows([][]float64{{1, 2, 1}, {2, 4, 1}})
	y := []float64{1, 2}
	if _, err := LeastSquares(x, y, 0); err == nil {
		t.Fatal("singular normal equations unexpectedly solvable without ridge")
	}
	beta, err := LeastSquares(x, y, 1e-8)
	if err != nil {
		t.Fatalf("ridge solve failed: %v", err)
	}
	// The ridge solution should still reproduce the observations well.
	for i := 0; i < x.Rows; i++ {
		pred := Dot(x.Row(i), beta)
		if math.Abs(pred-y[i]) > 1e-3 {
			t.Fatalf("ridge fit residual too large at %d: pred %v want %v", i, pred, y[i])
		}
	}
}

func TestFitAffineRecoversPlane(t *testing.T) {
	src := rng.New(3)
	coef := []float64{1.5, -2.0, 0.5}
	intercept := 4.0
	var xs [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		row := []float64{src.Uniform(-5, 5), src.Uniform(-5, 5), src.Uniform(-5, 5)}
		xs = append(xs, row)
		y = append(y, Dot(coef, row)+intercept)
	}
	fit, err := FitAffine(xs, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(fit.Coef, coef, 1e-8) || !almostEq(fit.Intercept, intercept, 1e-8) {
		t.Fatalf("fit = %+v", fit)
	}
	if res := maxAbsResidual(fit, xs, y); res > 1e-8 {
		t.Fatalf("noise-free fit residual %v", res)
	}
}

func TestFitAffineErrors(t *testing.T) {
	if _, err := FitAffine(nil, nil, 0); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := FitAffine([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := FitAffine([][]float64{{1, 2}, {3}}, []float64{1, 2}, 0); err == nil {
		t.Fatal("ragged observations accepted")
	}
}

func TestFitAffinePredictPanicsOnWrongWidth(t *testing.T) {
	fit := &LinearFit{Coef: []float64{1, 2}, Intercept: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict with wrong width did not panic")
		}
	}()
	fit.Predict([]float64{1})
}

// Property: least-squares residuals are orthogonal to the column space
// (normal equations hold), checked on random well-conditioned systems.
func TestPropertyResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n, p := 30, 4
		x := NewMatrix(n, p)
		for i := range x.Data {
			x.Data[i] = src.Uniform(-2, 2)
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = src.Uniform(-2, 2)
		}
		beta, err := LeastSquares(x, y, 0)
		if err != nil {
			return true // ill-conditioned draw; property vacuous
		}
		// r = y - X beta must satisfy Xᵀ r ≈ 0.
		for a := 0; a < p; a++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += x.At(i, a) * (y[i] - Dot(x.Row(i), beta))
			}
			if math.Abs(s) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding ridge never produces a solution with larger norm
// than a smaller ridge on the same system (shrinkage is monotone).
func TestPropertyRidgeShrinks(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n, p := 20, 3
		x := NewMatrix(n, p)
		for i := range x.Data {
			x.Data[i] = src.Uniform(-1, 1)
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = src.Uniform(-1, 1)
		}
		small, err1 := LeastSquares(x, y, 1e-6)
		big, err2 := LeastSquares(x, y, 1e2)
		if err1 != nil || err2 != nil {
			return true
		}
		return norm2(big) <= norm2(small)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// maxAbsResidual returns max_i |y_i - f(x_i)|.
func maxAbsResidual(f *LinearFit, xs [][]float64, y []float64) float64 {
	max := 0.0
	for i, row := range xs {
		if r := math.Abs(y[i] - f.Predict(row)); r > max {
			max = r
		}
	}
	return max
}

// norm2 returns the Euclidean norm of v.
func norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// residualRef is the per-row pass ResidualPass replaces: Predict on
// each row in order, folding the largest absolute residual and the
// prediction sum.
func residualRef(f *LinearFit, xs [][]float64, ys []float64) (maxAbs, sum float64) {
	for k, row := range xs {
		pred := f.Predict(row)
		if res := math.Abs(ys[k] - pred); res > maxAbs {
			maxAbs = res
		}
		sum += pred
	}
	return maxAbs, sum
}

// residualModel is residualRef with every multiply and add spelled out
// as the SSE2 instruction a default amd64 build runs for it (sseMul,
// sseAdd): the coefficient is the product's first operand, and each
// accumulator (the row's sum, the prediction before its intercept, the
// running prediction sum) is its add's first operand. The compiler
// picks those operands itself and may pick others in another build
// mode — coverage-instrumented fuzzing does — so NaN payloads are held
// to this model rather than to Predict's compiled code.
func residualModel(f *LinearFit, xs [][]float64, ys []float64) (maxAbs, sum float64) {
	for k, row := range xs {
		s := 0.0
		for j, c := range f.Coef {
			s = sseAdd(s, sseMul(c, row[j]))
		}
		pred := sseAdd(s, f.Intercept)
		if res := math.Abs(ys[k] - pred); res > maxAbs {
			maxAbs = res
		}
		sum = sseAdd(sum, pred)
	}
	return maxAbs, sum
}

// checkResidualPass fails t unless ResidualPass gives residualRef's
// values (NaN matching NaN) and — where exactNaNPayloads —
// residualModel's bits; elsewhere residualRef's bits, any NaN matching
// any NaN.
func checkResidualPass(t *testing.T, f *LinearFit, xs [][]float64, ys []float64) {
	t.Helper()
	gotMax, gotSum := f.ResidualPass(xs, ys)
	wantMax, wantSum := residualRef(f, xs, ys)
	sameValue := func(a, b float64) bool { return a == b || a != a && b != b }
	ok := sameValue(gotMax, wantMax) && sameValue(gotSum, wantSum)
	if exactNaNPayloads {
		wantMax, wantSum = residualModel(f, xs, ys)
	}
	if !ok || !sameBits(gotMax, wantMax) || !sameBits(gotSum, wantSum) {
		t.Fatalf("ResidualPass over %d rows of width %d = (%v, %v %#x), want (%v, %v %#x)",
			len(xs), len(f.Coef), gotMax, gotSum, math.Float64bits(gotSum),
			wantMax, wantSum, math.Float64bits(wantSum))
	}
}

// TestResidualPassMatchesPredict pins the four-row residual pass to
// the per-row Predict loop bit for bit (checkResidualPass): every
// width and row count from 0 to 9 (every row count mod 4), with ±0,
// NaN payloads, infinities and denormals in the rows, targets and
// coefficients, and past the Venice width over a few thousand rows.
func TestResidualPassMatchesPredict(t *testing.T) {
	src := rng.New(27)
	for d := 0; d <= 9; d++ {
		for n := 0; n <= 9; n++ {
			for _, specials := range []float64{0, 0.05, 0.3} {
				f := &LinearFit{Coef: make([]float64, d), Intercept: src.Uniform(-3, 3)}
				for j := range f.Coef {
					f.Coef[j] = src.Uniform(-3, 3)
					if src.Bool(specials) {
						f.Coef[j] = specialValue(src)
					}
				}
				xs, ys := kernelCase(src, n, d, d > 0, specials)
				checkResidualPass(t, f, xs, ys)
			}
		}
	}
	for _, d := range []int{4, 24, 40} {
		f := &LinearFit{Coef: make([]float64, d), Intercept: src.Uniform(-3, 3)}
		for j := range f.Coef {
			f.Coef[j] = src.Uniform(-3, 3)
		}
		for n := 2997; n <= 3000; n++ {
			xs, ys := kernelCase(src, n, d, true, 0.001)
			checkResidualPass(t, f, xs, ys)
		}
	}
}

// TestResidualPassPanicsOnWrongWidth checks that a row of the wrong
// width panics, as Predict does, in a full block of four too.
func TestResidualPassPanicsOnWrongWidth(t *testing.T) {
	f := &LinearFit{Coef: []float64{1, 2}}
	for _, n := range []int{1, 4} {
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = []float64{1, 2}
		}
		xs[n-1] = []float64{1, 2, 3}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d rows: a 3-wide row passed a 2-input fit", n)
				}
			}()
			f.ResidualPass(xs, make([]float64, n))
		}()
	}
}

// FuzzResidualPass checks the four-row residual pass against the
// per-row Predict loop (checkResidualPass) on arbitrary bit patterns. The first byte picks
// the width d in [0,9]; the rest is read as little-endian float64s:
// the d coefficients and the intercept, then each row's d inputs and
// target.
func FuzzResidualPass(f *testing.F) {
	enc := func(d int, vals ...float64) []byte {
		out := []byte{byte(d)}
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	nan := math.Float64frombits(0x7ff8000000000abc)
	negZero := math.Copysign(0, -1)
	f.Add(enc(0, 1, 2, 3, 4))
	f.Add(enc(2, 0.5, -1, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15))
	f.Add(enc(1, negZero, negZero, negZero, 0, math.Inf(1), math.Inf(-1), nan, 1, 2, 3, 4, 5))
	f.Add(enc(3, nan, 1, math.Inf(-1), 0, 1, 2, 3, 4, negZero, 0, negZero, nan, 5, 6, 7, 8, 9, 10, 11, 12))
	// A NaN prediction meeting a signalling NaN intercept of the other
	// sign, in a full block and in the row-by-row tail.
	snan := math.Float64frombits(0xfff0000000000123)
	f.Add(enc(2, nan, 1, snan, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := int(data[0]) % 10
		vals := make([]float64, (len(data)-1)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:]))
		}
		if len(vals) < d+1 {
			return
		}
		fit := &LinearFit{Coef: vals[:d:d], Intercept: vals[d]}
		vals = vals[d+1:]
		var xs [][]float64
		var ys []float64
		for ; len(vals) >= d+1; vals = vals[d+1:] {
			xs = append(xs, vals[:d:d])
			ys = append(ys, vals[d])
		}
		checkResidualPass(t, fit, xs, ys)
	})
}

// residualSink keeps the benchmarked pass's result live.
var residualSink float64

// BenchmarkResidualPass times the fused e_R and prediction-sum pass
// over 5,000 rows at the Venice width D=24: the per-row Predict loop
// it replaces, then ResidualPass.
func BenchmarkResidualPass(b *testing.B) {
	src := rng.New(5)
	f := &LinearFit{Coef: make([]float64, 24), Intercept: 0.5}
	for j := range f.Coef {
		f.Coef[j] = src.Uniform(-1, 1)
	}
	xs, ys := kernelCase(src, 5000, 24, false, 0)
	for _, bc := range []struct {
		name string
		pass func(*LinearFit, [][]float64, []float64) (float64, float64)
	}{{"predict", residualRef}, {"pass4", (*LinearFit).ResidualPass}} {
		b.Run(bc.name, func(b *testing.B) {
			for range b.N {
				residualSink, _ = bc.pass(f, xs, ys)
			}
		})
	}
}
