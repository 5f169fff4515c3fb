// Command perfbench is the repository's end-to-end fit benchmark. One
// invocation runs one workload for a fixed time and prints every metric
// by name with its unit, then, as the last line, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"fit_s": {"value": 1.21, "unit": "s"}, ...}}
//
// With --trace 0 the fit runs through the public forecast facade and
// the metrics are the end-to-end ones. With --trace 1 the same fit is
// driven through the internal layers (core, engine, remote, linalg),
// each call wrapped in the benchmark's own timing, and the metrics are
// the per-layer ones. Every run checks its fitted rule sets: against
// the digest recorded for the seed (or an independent reference fit),
// across repeated fits, and rule by rule against the training data.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: venice24, mg4, mg4-remote or venice24-stream")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if secs < 1 {
		return fmt.Errorf("--seconds %d must be positive", secs)
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		w.name, seed, secs, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	b := &bench{w: w, seed: seed, ctx: context.Background()}
	defer func() {
		if b.srv != nil {
			b.srv.stop()
		}
	}()
	rep := &report{}
	measure := time.Duration(secs) * time.Second
	if traced {
		err = b.traced(rep, measure)
	} else {
		err = b.untraced(rep, measure)
	}
	if err != nil {
		return err
	}
	if b.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	rep.add("failed_ops_pct", 100*float64(b.failed)/float64(b.attempted), "%", false)
	return rep.print(b)
}

// untraced measures the end-to-end metrics through the facade.
func (b *bench) untraced(rep *report, measure time.Duration) error {
	s, err := b.measure(measure)
	if err != nil {
		return err
	}
	if err := b.checkReference(s.digest); err != nil {
		return err
	}
	rep.add("setup_s", median(s.setup), "s", true)
	rep.add("fit_s", median(s.fit), "s", true)
	rep.add("gens_per_s", median(s.gensPerS), "1/s", true)
	rep.add("round_s_p50", median(s.round), "s", true)
	if v, pct, ok := tail(s.round); ok {
		rep.add("round_s_tail", v, "s", false)
		rep.note(fmt.Sprintf("round_s_tail is the p%.1f of %d rounds", pct, len(s.round)))
	} else {
		rep.note(fmt.Sprintf("round_s_tail: %d rounds, too few for a percentile with ten beyond it", len(s.round)))
	}
	rep.add("alloc_mb", median(s.alloc), "MB", true)
	// Printed, not gated: on a shared 2-core host their run-to-run
	// spread is too wide for a regression bound.
	rep.add("peak_rss_mb", peakRSSMB(), "MB", false)
	rep.add("predict_us", median(s.predict), "us", false)
	rep.add("test_nmse", s.nmse, "1", false)
	rep.add("test_coverage_pct", 100*s.coverage, "%", false)
	rep.note("digest " + s.digest)
	return nil
}

// report is the ordered list of a run's metrics. Keyed metrics go into
// the final JSON line; the rest are printed for the reader only.
type report struct {
	lines []string
	vals  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) add(name string, v float64, unit string, keyed bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.lines = append(r.lines, fmt.Sprintf("%-28s %14.6g %s", name, v, unit))
	if keyed {
		if r.vals == nil {
			r.vals = map[string]metric{}
		}
		r.vals[name] = metric{v, unit}
	}
}

func (r *report) note(s string) { r.lines = append(r.lines, "# "+s) }

func (r *report) print(b *bench) error {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, r.vals})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
