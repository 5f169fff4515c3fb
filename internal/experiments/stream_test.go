package experiments

import (
	"context"

	"strings"
	"testing"
)

// TestWindowedStreamTiny smoke-runs the windowed-stream lifecycle
// scenario: the window must actually slide (evictions every round),
// and the live set must stay capped.
func TestWindowedStreamTiny(t *testing.T) {
	res, err := WindowedStream(context.Background(), Tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != streamRounds {
		t.Fatalf("got %d rounds, want %d", len(res.Rows), streamRounds)
	}
	for _, row := range res.Rows {
		if row.Evicted == 0 {
			t.Fatalf("round %d: nothing evicted — the window is not sliding", row.Round)
		}
		if row.Live > res.Window {
			t.Fatalf("round %d: %d live patterns exceed the %d window", row.Round, row.Live, res.Window)
		}
	}
	text := res.Format()
	for _, col := range []string{"evicted", "live", "rmse", "coverage"} {
		if !strings.Contains(text, col) {
			t.Fatalf("Format() lacks the %q column:\n%s", col, text)
		}
	}
}
