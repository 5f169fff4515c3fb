package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunTelemetry runs one fake-clocked execution with a registry and
// trace sink attached and checks every core metric: generation counts
// and durations, the evaluation counters, the best-of-run trajectory
// gauges, and the trace events' envelope.
func TestRunTelemetry(t *testing.T) {
	ds := sineDataset(t, 200, 4)
	cfg := quickConfig(4, 1)
	var tick int64
	reg := obs.NewWithClock(func() int64 { tick += 7; return tick })
	var buf bytes.Buffer
	reg.TraceTo(obs.NewTracer(&buf, func() int64 { return tick }))
	cfg.Runtime.Telemetry = reg

	ex, err := NewExecution(context.Background(), cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if n := s["core_generations"].(uint64); n != uint64(cfg.Generations) {
		t.Fatalf("core_generations = %d, want %d", n, cfg.Generations)
	}
	hv := s["core_generation_ns"].(obs.HistogramValue)
	if hv.Count != uint64(cfg.Generations) {
		t.Fatalf("core_generation_ns count = %d, want %d", hv.Count, cfg.Generations)
	}
	if hv.Sum <= 0 {
		t.Fatalf("core_generation_ns sum = %d, want positive fake-clock durations", hv.Sum)
	}
	if got := s["core_best_fitness"].(float64); got != ex.Stats.BestFitness {
		t.Fatalf("core_best_fitness gauge = %v, Stats.BestFitness %v (pop best is monotone under crowding)",
			got, ex.Stats.BestFitness)
	}
	computed := s["core_evals_computed"].(uint64)
	cached, _ := s["core_evals_cached"].(uint64)
	// Every rule carries an evaluation: the initial population plus one
	// offspring per generation, each either computed or cache-served.
	want := uint64(cfg.PopSize + cfg.Generations)
	if computed+cached != want {
		t.Fatalf("core_evals computed %d + cached %d = %d, want %d", computed, cached, computed+cached, want)
	}
	if computed == 0 {
		t.Fatal("core_evals_computed = 0, nothing was ever regressed")
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace has %d lines, want at least best_improved + execution_done", len(lines))
	}
	sawImproved, sawDone := false, false
	for _, ln := range lines {
		var ev struct {
			TS     int64          `json:"ts_ns"`
			Event  string         `json:"event"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		switch ev.Event {
		case "best_improved":
			sawImproved = true
			if _, ok := ev.Fields["fitness"]; !ok {
				t.Fatalf("best_improved without fitness: %q", ln)
			}
		case "execution_done":
			sawDone = true
			if g, _ := ev.Fields["generations"].(float64); int(g) != cfg.Generations {
				t.Fatalf("execution_done generations = %v, want %d", ev.Fields["generations"], cfg.Generations)
			}
		}
	}
	if !sawImproved || !sawDone {
		t.Fatalf("trace missing events: best_improved=%v execution_done=%v", sawImproved, sawDone)
	}
}

// TestTelemetryDoesNotChangeResults pins the bit-identical contract:
// the same seed with and without a registry attached evolves the same
// population.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	ds := sineDataset(t, 200, 4)
	run := func(reg *obs.Registry) []*Rule {
		cfg := quickConfig(4, 42)
		cfg.Generations = 150
		cfg.Runtime.Telemetry = reg
		ex, err := NewExecution(context.Background(), cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(context.Background(), 0, nil); err != nil {
			t.Fatal(err)
		}
		return ex.Pop
	}
	plain := run(nil)
	instr := run(obs.New())
	if len(plain) != len(instr) {
		t.Fatalf("population sizes differ: %d vs %d", len(plain), len(instr))
	}
	for i := range plain {
		if plain[i].Fitness != instr[i].Fitness || plain[i].Error != instr[i].Error {
			t.Fatalf("rule %d diverged with telemetry attached: %+v vs %+v", i, plain[i], instr[i])
		}
	}
}

// TestSpeculationTelemetry runs each replacement kind and the
// mutation-only path with speculation forced on, at one and two
// workers, and checks the prefetch counters: every simulated offspring
// ends as a hit or as waste, every generation inside a window finds
// its child already scored (the simulation drew exactly what the real
// loop drew), the real-evaluation counters still count one evaluation
// per rule, and the counters are exposed on /metrics. Left to its
// gate, this cheap in-process fit must open no window.
func TestSpeculationTelemetry(t *testing.T) {
	ds := sineDataset(t, 300, 4)
	variants := map[string]func(*Config){
		"nearest":       func(c *Config) {},
		"worst":         func(c *Config) { c.Replacement = ReplaceWorst },
		"random":        func(c *Config) { c.Replacement = ReplaceRandom },
		"mutation-only": func(c *Config) { c.CrossoverRate = 0.3; c.Replacement = ReplaceRandom },
	}
	for name, set := range variants {
		t.Run(name, func(t *testing.T) {
			run := func(workers int, force bool) obs.Snapshot {
				if force {
					defer ForceSpeculation()()
				}
				cfg := quickConfig(4, 9)
				cfg.Generations = 1200
				cfg.Runtime.Workers = workers
				set(&cfg)
				reg := obs.New()
				cfg.Runtime.Telemetry = reg
				ex, err := NewExecution(context.Background(), cfg, ds)
				if err != nil {
					t.Fatal(err)
				}
				if err := ex.Run(context.Background(), 0, nil); err != nil {
					t.Fatal(err)
				}
				if force {
					var prom bytes.Buffer
					reg.WritePrometheus(&prom)
					for _, m := range []string{"core_spec_windows", "core_spec_evals", "core_spec_hits", "core_spec_wasted"} {
						if !strings.Contains(prom.String(), "\n"+m+" ") {
							t.Fatalf("/metrics exposition lacks %s:\n%s", m, prom.String())
						}
					}
				}
				return reg.Snapshot()
			}
			count := func(s obs.Snapshot, name string) uint64 { v, _ := s[name].(uint64); return v }

			for _, workers := range []int{1, 2} {
				if off := run(workers, false); count(off, "core_spec_windows") != 0 {
					t.Fatalf("a cheap in-process fit on %d workers opened %d speculative windows", workers, count(off, "core_spec_windows"))
				}
			}
			for _, workers := range []int{1, 2} {
				s := run(workers, true)
				windows, evals := count(s, "core_spec_windows"), count(s, "core_spec_evals")
				hits, wasted := count(s, "core_spec_hits"), count(s, "core_spec_wasted")
				if windows == 0 || hits == 0 {
					t.Fatalf("%d workers: %d windows, %d hits — speculation never ran", workers, windows, hits)
				}
				if evals != hits+wasted {
					t.Fatalf("spec evals %d != hits %d + wasted %d", evals, hits, wasted)
				}
				computed, cached := count(s, "core_evals_computed"), count(s, "core_evals_cached")
				const pop, gens = 30, 1200
				if computed+cached != pop+gens {
					t.Fatalf("real evaluations computed %d + cached %d, want %d", computed, cached, pop+gens)
				}
				if computed > pop+gens-hits {
					t.Fatalf("%d real evaluations computed, but only %d generations ran outside a window: a window mis-foresaw its offspring",
						computed, gens-hits)
				}
			}
		})
	}
}
