package experiments

import (
	"context"

	"strings"
	"testing"
)

// TestWindowedStreamTiny smoke-runs the windowed-stream lifecycle
// scenario: the window must actually slide (evictions every round),
// the live set must stay capped, and the shard count must stay fixed.
func TestWindowedStreamTiny(t *testing.T) {
	sc := Tiny()
	sc.EngineShards = 4
	res, err := WindowedStream(context.Background(), sc, 7)
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
		if row.Shards != sc.EngineShards {
			t.Fatalf("round %d: %d shards, want the configured %d", row.Round, row.Shards, sc.EngineShards)
		}
	}
	text := res.Format()
	for _, col := range []string{"evicted", "live", "max/min", "rmse"} {
		if !strings.Contains(text, col) {
			t.Fatalf("Format() lacks the %q column:\n%s", col, text)
		}
	}
}
