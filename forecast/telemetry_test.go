package forecast

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestWithTelemetryEndToEnd fits an engine-backed Forecaster with a
// registry and JSONL trace attached and checks metrics from every
// layer land in one snapshot, and the facade's lifecycle events land
// in the trace.
func TestWithTelemetryEndToEnd(t *testing.T) {
	ds := sineDataset(t, 300, 4)
	reg := NewTelemetry()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	closer, err := TraceTo(reg, path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := New(
		WithEngine(0),
		WithSeed(7),
		WithGenerations(300),
		WithTelemetry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	if f.Telemetry() == nil {
		t.Fatal("Telemetry() nil with a registry attached")
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if n := f.Evict(10); n != 10 {
		t.Fatalf("Evict(10) = %d", n)
	}

	s := f.Telemetry()
	// One snapshot spans the layers: the engine's batches and the
	// evolutionary core, whose evaluation counters show the cache.
	for _, name := range []string{"engine_matchbatch_ns", "engine_epoch", "core_generations", "core_evals_computed", "core_best_fitness"} {
		if _, ok := s[name]; !ok {
			t.Fatalf("snapshot missing %s (have %d metrics)", name, len(s))
		}
	}
	if n := s["core_generations"].(uint64); n == 0 {
		t.Fatal("core_generations = 0 after Fit")
	}

	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]bool{}
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		events[ev.Event] = true
	}
	for _, want := range []string{"fit_start", "fit_done", "evict", "execution_done"} {
		if !events[want] {
			t.Fatalf("trace missing %q event (have %v)", want, events)
		}
	}
}

// TestExecutionDoneOncePerExecution checks that every way a fit ends
// its executions emits exactly one execution_done trace event per
// execution or island: a plain fit, a fit reporting progress, and an
// island fit.
func TestExecutionDoneOncePerExecution(t *testing.T) {
	ds := sineDataset(t, 300, 4)
	for _, tc := range []struct {
		name string
		opt  Option
		want int
	}{
		{"plain", WithSeed(7), 1},
		{"progress", WithProgress(50, func(Progress) bool { return true }), 1},
		{"islands", WithIslands(2, 50, 2), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewTelemetry()
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			closer, err := TraceTo(reg, path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := New(WithSeed(7), WithGenerations(200), WithTelemetry(reg), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Fit(context.Background(), ds); err != nil {
				t.Fatal(err)
			}
			if err := closer.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			done := 0
			for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
				var ev struct {
					Event string `json:"event"`
				}
				if err := json.Unmarshal([]byte(ln), &ev); err != nil {
					t.Fatalf("trace line %q: %v", ln, err)
				}
				if ev.Event == "execution_done" {
					done++
				}
			}
			if done != tc.want || done != f.Stats().Executions {
				t.Fatalf("%d execution_done events, want %d (fit ran %d executions)", done, tc.want, f.Stats().Executions)
			}
		})
	}
}

// TestTelemetryOptional pins the nil contracts: no option means a nil
// snapshot, and WithTelemetry(nil) is rejected at New.
func TestTelemetryOptional(t *testing.T) {
	f, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := f.Telemetry(); s != nil {
		t.Fatalf("Telemetry() = %v without WithTelemetry, want nil", s)
	}
	if _, err := New(WithTelemetry(nil)); err == nil {
		t.Fatal("WithTelemetry(nil) accepted")
	}
	var _ *obs.Registry = NewTelemetry() // the alias stays the internal registry type
}
