package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		n := 1000
		hits := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("For executed iterations for non-positive n")
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count ignored")
	}
	if Workers(0) < 1 {
		t.Fatal("default workers < 1")
	}
}

func TestFoldSum(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		got := Fold(100, workers,
			func() int { return 0 },
			func(acc, i int) int { return acc + i },
			func(a, b int) int { return a + b })
		if got != 4950 {
			t.Fatalf("workers=%d sum=%d want 4950", workers, got)
		}
	}
}

func TestFoldEmpty(t *testing.T) {
	got := Fold(0, 4,
		func() int { return 42 },
		func(acc, i int) int { return acc + i },
		func(a, b int) int { return a + b })
	if got != 42 {
		t.Fatalf("empty fold = %d, want zero() value", got)
	}
}

func TestFoldOrderedAppend(t *testing.T) {
	// Chunk-ordered merge must preserve index order for appends.
	got := Fold(57, 4,
		func() []int { return nil },
		func(acc []int, i int) []int { return append(acc, i) },
		func(a, b []int) []int { return append(a, b...) })
	if len(got) != 57 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

// Property: Fold with associative merge equals the serial loop for
// any worker count.
func TestPropertyFoldMatchesSerial(t *testing.T) {
	f := func(nRaw uint16, wRaw uint8) bool {
		n := int(nRaw) % 500
		workers := 1 + int(wRaw)%16
		serial := 0
		for i := 0; i < n; i++ {
			serial += i * i
		}
		par := Fold(n, workers,
			func() int { return 0 },
			func(acc, i int) int { return acc + i*i },
			func(a, b int) int { return a + b })
		return serial == par
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
