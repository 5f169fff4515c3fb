package main

// End-to-end check of the distributed tracing story: a real 2-server
// TCP cluster, every process on its own deterministic fake clock and
// JSONL trace file, one traced Fit on the client — then this tool
// stitches the three files into a single tree and the server-side
// spans land under the exact client RPC spans that issued them.

import (
	"context"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/forecast"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/series"
)

// tracedRegistry builds a fake-clocked registry appending to a JSONL
// file, the same wiring the -trace flag does in the real binaries.
func tracedRegistry(t *testing.T, path string) *obs.Registry {
	t.Helper()
	var tick atomic.Int64
	clock := func() int64 { return tick.Add(1000) }
	reg := obs.NewWithClock(clock)
	tr, err := obs.TraceFile(path, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	reg.TraceTo(tr)
	return reg
}

// startTracedServer runs a shardserver-shaped remote.Server on a
// loopback TCP listener with its own traced registry.
func startTracedServer(t *testing.T, path string) string {
	t.Helper()
	srv := remote.NewServer(engine.Options{})
	srv.Instrument(tracedRegistry(t, path))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, l) }()
	t.Cleanup(func() { cancel(); l.Close(); <-done })
	return l.Addr().String()
}

func TestDistributedTraceStitchesIntoOneTree(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		filepath.Join(dir, "client.trace"),
		filepath.Join(dir, "server0.trace"),
		filepath.Join(dir, "server1.trace"),
	}
	addr0 := startTracedServer(t, paths[1])
	addr1 := startTracedServer(t, paths[2])

	vals := make([]float64, 160)
	for i := range vals {
		vals[i] = math.Sin(float64(i) / 5)
	}
	ds, err := series.Window(series.New("sine", vals), 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	reg := tracedRegistry(t, paths[0])
	f, err := forecast.New(
		forecast.WithRemoteCluster(addr0, addr1),
		forecast.WithTelemetry(reg),
		forecast.WithPopulation(8),
		forecast.WithGenerations(4),
		forecast.WithMultiRun(1),
		forecast.WithParallelism(1),
		forecast.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The tracer writes each event straight through, and a handler's
	// span ends before its response frame is written — so once Fit and
	// Close return, every span of the run is already on disk.
	var spans []*span
	for i, p := range paths {
		fh, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := readSpans(fh, i)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(ss) == 0 {
			t.Fatalf("%s: no spans recorded", p)
		}
		spans = append(spans, ss...)
	}

	forest := stitch(spans)
	if len(forest.traceIDs) != 1 {
		t.Fatalf("trace ids = %v, want exactly one", forest.traceIDs)
	}
	if len(forest.orphans) != 0 {
		t.Fatalf("%d orphan spans, want 0", len(forest.orphans))
	}
	roots := forest.roots[forest.traceIDs[0]]
	if len(roots) != 1 || roots[0].Name != "forecast.fit" {
		t.Fatalf("roots = %+v, want single forecast.fit", roots)
	}

	// Every remote (server-side handler) span must hang under a client
	// rpc.* span from the client file, and each server file must have
	// contributed handler spans.
	serveByFile := map[int]int{}
	var walk func(s *span)
	walk = func(s *span) {
		if s.Remote {
			serveByFile[s.File]++
			if s.par == nil || s.par.File != 0 || !strings.HasPrefix(s.par.Name, "rpc.") {
				t.Fatalf("server span %q (file %d) parented under %+v, want a client rpc.* span", s.Name, s.File, s.par)
			}
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(roots[0])
	if serveByFile[1] == 0 || serveByFile[2] == 0 {
		t.Fatalf("server handler spans per file = %v, want both servers represented", serveByFile)
	}

	// The summary view of the real run shows the whole chain.
	var buf strings.Builder
	writeSummary(&buf, forest, paths)
	got := buf.String()
	for _, want := range []string{
		"forecast.fit ×1",
		"core.execution",
		"core.generation",
		"cluster.matchbatch",
		"rpc.matchbatch",
		"serve.matchbatch",
		"engine.matchbatch",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary missing %q:\n%s", want, got)
		}
	}
}
