package engine

import "testing"

// TestOptionsClamped is the satellite table test: out-of-range
// options are normalized in one place, so constructors never see
// negative shard or worker counts.
func TestOptionsClamped(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want Options
	}{
		{
			name: "negative counts become defaults",
			in:   Options{Shards: -3, Workers: -1},
			want: Options{},
		},
		{
			name: "positive fields pass through",
			in:   Options{Shards: 4, Workers: 2},
			want: Options{Shards: 4, Workers: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Clamped(); got != tc.want {
				t.Fatalf("Clamped(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}

	// Clamping is idempotent: a clamped option set is a fixed point.
	for _, tc := range cases {
		once := tc.in.Clamped()
		if twice := once.Clamped(); twice != once {
			t.Fatalf("%s: Clamped not idempotent: %+v then %+v", tc.name, once, twice)
		}
	}

	// The constructors go through the same clamp: a hostile option set
	// still yields a working engine.
	ds := testDataset(t, 50, 3, false)
	eng := New(ds, Options{Shards: -5, Workers: -2})
	if eng.P() < 1 || eng.LiveLen() != ds.Len() {
		t.Fatalf("engine built from hostile options: P=%d live=%d", eng.P(), eng.LiveLen())
	}
	if got := eng.MatchIndices(randomRules(ds, 1, 1)[0]); got == nil {
		_ = got // nil is legal (no matches); the call just must not panic
	}
}
