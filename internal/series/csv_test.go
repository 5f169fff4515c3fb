package series

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	s := New("level", []float64{1.5, -2, 3.25})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "level" {
		t.Fatalf("name = %q", got.Name)
	}
	if got.Len() != 3 || got.Values[0] != 1.5 || got.Values[1] != -2 || got.Values[2] != 3.25 {
		t.Fatalf("values = %v", got.Values)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("header-only\n")); !errors.Is(err, ErrCSV) {
		t.Fatalf("header-only CSV: err = %v, want ErrCSV", err)
	}
	if _, err := ReadCSV(strings.NewReader("t,v\n0,not-a-number\n")); !errors.Is(err, ErrCSV) {
		t.Fatalf("non-numeric CSV: err = %v, want ErrCSV", err)
	}
	if _, err := ReadCSV(strings.NewReader("t,v\n0,\"1\n")); !errors.Is(err, ErrCSV) {
		t.Fatalf("unterminated quote: err = %v, want ErrCSV", err)
	}
}

func TestSaveLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.csv")
	s := New("x", []float64{9, 8, 7})
	if err := SaveCSV(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.Values[2] != 7 {
		t.Fatalf("loaded = %v", got.Values)
	}
	if _, err := LoadCSV(filepath.Join(dir, "missing.csv")); !os.IsNotExist(err) {
		t.Fatalf("expected not-exist error, got %v", err)
	}
}

// FuzzReadCSV feeds arbitrary bytes to the series loader and windows
// whatever it accepts at a small D: neither step may panic, only
// return errors.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, New("level", []float64{1.5, -2, 3.25, 0, 7})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("v\n1\n2\n"))
	f.Add([]byte("t,v\n0,NaN\n1,+Inf\n2,-1e308\n"))
	f.Add([]byte("a,b\n1\n"))
	f.Add([]byte("\"t\",\"v\n"))

	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		for d := 1; d <= 3; d++ {
			if ds, err := Window(s, d, 1); err == nil && len(ds.Inputs) != s.Len()-d {
				t.Fatalf("Window(D=%d) of %d values gave %d patterns", d, s.Len(), len(ds.Inputs))
			}
		}
	})
}
