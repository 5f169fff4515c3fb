package series

import (
	"errors"
	"testing"
	"testing/quick"
)

func ramp(n int) *Series {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return New("ramp", v)
}

func TestWindowShapes(t *testing.T) {
	ds, err := Window(ramp(10), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Patterns: i = 0 .. 10-3-2 = 5 → 6 patterns.
	if ds.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ds.Len())
	}
	// Pattern 0 = (0,1,2), target = x[2+2] = 4.
	if ds.Inputs[0][0] != 0 || ds.Inputs[0][2] != 2 {
		t.Fatalf("pattern 0 = %v", ds.Inputs[0])
	}
	if ds.Targets[0] != 4 {
		t.Fatalf("target 0 = %v, want 4", ds.Targets[0])
	}
	// Last pattern i=5 = (5,6,7), target = x[7+2] = 9.
	if ds.Targets[5] != 9 {
		t.Fatalf("target 5 = %v, want 9", ds.Targets[5])
	}
}

func TestWindowPaperIndexing(t *testing.T) {
	// The paper defines v_i = x_{i+D-1+τ}; check τ=1 gives the very
	// next value after the window.
	ds, err := Window(ramp(6), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		last := ds.Inputs[i][3]
		if ds.Targets[i] != last+1 {
			t.Fatalf("pattern %d: target %v, want %v", i, ds.Targets[i], last+1)
		}
	}
}

func TestWindowErrors(t *testing.T) {
	if _, err := Window(ramp(10), 0, 1); err == nil {
		t.Fatal("D=0 accepted")
	}
	if _, err := Window(ramp(10), 3, 0); err == nil {
		t.Fatal("τ=0 accepted")
	}
	if _, err := Window(ramp(3), 3, 1); !errors.Is(err, ErrTooShort) {
		t.Fatal("too-short series accepted")
	}
}

func TestSplit(t *testing.T) {
	ds, _ := Window(ramp(20), 2, 1)
	train, test := ds.Split(10)
	if train.Len() != 10 || test.Len() != ds.Len()-10 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if train.D != 2 || test.Horizon != 1 {
		t.Fatal("split lost metadata")
	}
	tr2, te2 := ds.SplitFraction(0.5)
	if tr2.Len()+te2.Len() != ds.Len() {
		t.Fatal("fraction split lost patterns")
	}
}

func TestSplitPanics(t *testing.T) {
	ds, _ := Window(ramp(10), 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Split did not panic")
		}
	}()
	ds.Split(999)
}

func TestSliceAndPanic(t *testing.T) {
	s := ramp(10)
	sub := s.Slice(2, 5)
	if sub.Len() != 3 || sub.Values[0] != 2 {
		t.Fatalf("Slice = %+v", sub)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad Slice did not panic")
		}
	}()
	s.Slice(5, 2)
}

func TestNormalizeRoundTrip(t *testing.T) {
	s := New("x", []float64{10, 20, 30})
	norm, sc := s.Normalize()
	if norm.Values[0] != 0 || norm.Values[2] != 1 {
		t.Fatalf("normalized = %v", norm.Values)
	}
	if sc.Inverse(norm.Values[1]) != 20 {
		t.Fatal("scaler does not invert")
	}
}

func TestTargetRange(t *testing.T) {
	ds, _ := Window(ramp(10), 2, 1)
	lo, hi := ds.TargetRange()
	if lo != 2 || hi != 9 {
		t.Fatalf("TargetRange = %v..%v", lo, hi)
	}
}

func TestSummary(t *testing.T) {
	if got := ramp(5).Summary(); got.N != 5 || got.Min != 0 || got.Max != 4 {
		t.Fatalf("Summary = %+v", got)
	}
}

// Property: windowing never loses the alignment x_{i+D-1+τ} == target.
func TestPropertyWindowAlignment(t *testing.T) {
	f := func(seed int64, dRaw, tauRaw uint8) bool {
		d := 1 + int(dRaw)%6
		tau := 1 + int(tauRaw)%6
		s := ramp(40)
		ds, err := Window(s, d, tau)
		if err != nil {
			return true
		}
		for i := 0; i < ds.Len(); i++ {
			if ds.Targets[i] != s.Values[i+d-1+tau] {
				return false
			}
			for j := 0; j < d; j++ {
				if ds.Inputs[i][j] != s.Values[i+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTailPatterns pins the boundary math: the patterns a grown
// series adds are exactly the full window minus the old prefix's
// windows, for any growth point including one inside the first
// window.
func TestTailPatterns(t *testing.T) {
	values := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	const d, horizon = 3, 2
	full, err := Window(New("full", values), d, horizon)
	if err != nil {
		t.Fatal(err)
	}
	for oldLen := 0; oldLen <= len(values); oldLen++ {
		old := 0
		if oldLen >= d+horizon {
			prefix, err := Window(New("prefix", values[:oldLen]), d, horizon)
			if err != nil {
				t.Fatal(err)
			}
			old = prefix.Len()
		}
		inputs, targets := TailPatterns(values, oldLen, d, horizon)
		if len(inputs) != full.Len()-old {
			t.Fatalf("oldLen=%d: got %d tail patterns, want %d", oldLen, len(inputs), full.Len()-old)
		}
		for k := range inputs {
			g := old + k
			for j, x := range inputs[k] {
				if x != full.Inputs[g][j] {
					t.Fatalf("oldLen=%d pattern %d input %d: got %v want %v", oldLen, k, j, x, full.Inputs[g][j])
				}
			}
			if targets[k] != full.Targets[g] {
				t.Fatalf("oldLen=%d pattern %d target: got %v want %v", oldLen, k, targets[k], full.Targets[g])
			}
		}
	}
}
