package remote

import (
	"context"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TestRPCTelemetryBothSides loads a two-server loopback cluster with
// client- and server-side registries attached and checks that one
// MatchBatch shows up in every layer: per-verb counters, latency and
// bytes-on-wire histograms on the servers, and the client's per-verb
// round-trip metrics.
func TestRPCTelemetryBothSides(t *testing.T) {
	ds := testDataset(t, 200, 3, false)
	srvRegs := make([]*obs.Registry, 2)
	dialers := make([]Dialer, 2)
	for i := range dialers {
		srv := NewServer(engine.Options{})
		srvRegs[i] = obs.New()
		srv.Instrument(srvRegs[i])
		lb := NewLoopback(srv)
		dialers[i] = lb
	}
	c, err := NewCluster(dialers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	creg := obs.New()
	c.Instrument(creg)

	ctx := context.Background()
	if err := c.Load(ctx, ds); err != nil {
		t.Fatal(err)
	}
	rules := randomRules(ds, 10, 3)
	c.MatchBatch(ctx, rules)

	for i, reg := range srvRegs {
		s := reg.Snapshot()
		if n, _ := s["rpc_matchbatch_count"].(uint64); n == 0 {
			t.Fatalf("server %d: rpc_matchbatch_count = %v, want nonzero", i, s["rpc_matchbatch_count"])
		}
		if hv, _ := s["rpc_matchbatch_ns"].(obs.HistogramValue); hv.Count == 0 {
			t.Fatalf("server %d: rpc_matchbatch_ns empty", i)
		}
		if hv, _ := s["rpc_matchbatch_bytes_in"].(obs.HistogramValue); hv.Count == 0 || hv.Sum <= 0 {
			t.Fatalf("server %d: rpc_matchbatch_bytes_in = %+v, want observed bytes", i, hv)
		}
		if hv, _ := s["rpc_matchbatch_bytes_out"].(obs.HistogramValue); hv.Count == 0 || hv.Sum <= 0 {
			t.Fatalf("server %d: rpc_matchbatch_bytes_out = %+v, want observed bytes", i, hv)
		}
		// Load goes over the wire as a Reset: the server must have
		// counted it AND re-instrumented the engine the reset built.
		if n, _ := s["rpc_reset_count"].(uint64); n == 0 {
			t.Fatalf("server %d: rpc_reset_count = %v, want nonzero", i, s["rpc_reset_count"])
		}
		if hv, _ := s["engine_matchbatch_ns"].(obs.HistogramValue); hv.Count == 0 {
			t.Fatalf("server %d: engine not re-instrumented after Reset (engine_matchbatch_ns empty)", i)
		}
	}

	cs := creg.Snapshot()
	if hv, _ := cs["rpc_client_matchbatch_ns"].(obs.HistogramValue); hv.Count < 2 {
		t.Fatalf("rpc_client_matchbatch_ns count = %d, want one per server", hv.Count)
	}
	if hv, _ := cs["rpc_client_matchbatch_bytes"].(obs.HistogramValue); hv.Count == 0 || hv.Sum <= 0 {
		t.Fatalf("rpc_client_matchbatch_bytes = %+v, want observed bytes", hv)
	}
	if n, _ := cs["rpc_client_faults"].(uint64); n != 0 {
		t.Fatalf("rpc_client_faults = %d on a healthy cluster", n)
	}
}

// TestRPCTelemetryDeadlineTrip drives a loopback cluster into a missed
// caller deadline and checks the client counts the deadline trip — but
// NOT a fault, because the caller's own cancellation is documented as
// exempt from poisoning the cluster.
func TestRPCTelemetryDeadlineTrip(t *testing.T) {
	ds := testDataset(t, 100, 3, false)
	c, _ := newLoopbackCluster(t, 1, Options{})
	creg := obs.New()
	c.Instrument(creg)
	if err := c.Load(context.Background(), ds); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	c.MatchBatch(ctx, randomRules(ds, 5, 1))
	if err := c.BackendErr(); err != nil {
		t.Fatalf("caller's own deadline poisoned the cluster: %v", err)
	}

	s := creg.Snapshot()
	if n, _ := s["rpc_client_deadline_trips"].(uint64); n == 0 {
		t.Fatalf("rpc_client_deadline_trips = %v, want nonzero", s["rpc_client_deadline_trips"])
	}
	if n, _ := s["rpc_client_faults"].(uint64); n != 0 {
		t.Fatalf("rpc_client_faults = %d, caller cancellation must not count as a fault", n)
	}
}
