package remote

import (
	"context"
	"errors"

	"repro/internal/obs"
)

// This file is the remote protocol's telemetry seam: per-verb RPC
// latency and bytes-on-wire histograms on both halves, plus the
// client-side redial / sticky-fault / deadline-trip counters. Like the
// engine's seam, everything is optional — with no registry attached
// each hook is one nil check — and purely observational: instrumented
// and uninstrumented clusters produce bit-identical results.

// nOps sizes the per-opcode metric tables.
const nOps = int(opLiveLen) + 1

// frameHeaderLen is the length prefix every frame carries on the
// wire; the bytes histograms include it so they reflect real traffic.
const frameHeaderLen = 4

// verbNames names each opcode in metric keys ("rpc_matchbatch_count",
// "rpc_client_append_ns", …). A retired opcode has no name and no
// metrics of its own.
var verbNames = [nOps]string{
	opError:      "error",
	opHello:      "hello",
	opSnapshot:   "snapshot",
	opReset:      "reset",
	opMatchBatch: "matchbatch",
	opAppend:     "append",
	opDelete:     "delete",
	opEpoch:      "epoch",
	opLiveLen:    "livelen",
}

// opIndex maps an opcode (possibly hostile, on the server side) into
// the metric tables; anything unknown or retired lands on the error
// row.
func opIndex(op byte) int {
	if int(op) >= nOps || verbNames[op] == "" {
		return 0
	}
	return int(op)
}

// rpcClientTelemetry is the client half: per-verb round-trip latency
// and bytes on the wire (request + response + frame headers), plus the
// connection-health counters. One instance is shared by every conn of
// a cluster.
type rpcClientTelemetry struct {
	reg     *obs.Registry
	latency [nOps]*obs.Histogram // rpc_client_<verb>_ns
	bytes   [nOps]*obs.Histogram // rpc_client_<verb>_bytes

	redials       *obs.Counter // reconnects after a poisoned connection
	faults        *obs.Counter // sticky cluster failures (first BackendErr)
	deadlineTrips *obs.Counter // round trips ended by the caller's deadline
}

func newRPCClientTelemetry(reg *obs.Registry) *rpcClientTelemetry {
	if reg == nil {
		return nil
	}
	t := &rpcClientTelemetry{
		reg:           reg,
		redials:       reg.Counter("rpc_client_redials"),
		faults:        reg.Counter("rpc_client_faults"),
		deadlineTrips: reg.Counter("rpc_client_deadline_trips"),
	}
	for op, verb := range verbNames {
		if verb == "" {
			continue
		}
		t.latency[op] = reg.Histogram("rpc_client_" + verb + "_ns")
		t.bytes[op] = reg.Histogram("rpc_client_" + verb + "_bytes")
	}
	return t
}

// rpcServerTelemetry is the server half: per-verb request counts,
// handling latency (mutex wait included — that wait is real queueing a
// client observes), and bytes in/out with frame headers.
type rpcServerTelemetry struct {
	reg      *obs.Registry
	count    [nOps]*obs.Counter   // rpc_<verb>_count
	latency  [nOps]*obs.Histogram // rpc_<verb>_ns
	bytesIn  [nOps]*obs.Histogram // rpc_<verb>_bytes_in
	bytesOut [nOps]*obs.Histogram // rpc_<verb>_bytes_out
}

func newRPCServerTelemetry(reg *obs.Registry) *rpcServerTelemetry {
	if reg == nil {
		return nil
	}
	t := &rpcServerTelemetry{reg: reg}
	for op, verb := range verbNames {
		if verb == "" {
			continue
		}
		t.count[op] = reg.Counter("rpc_" + verb + "_count")
		t.latency[op] = reg.Histogram("rpc_" + verb + "_ns")
		t.bytesIn[op] = reg.Histogram("rpc_" + verb + "_bytes_in")
		t.bytesOut[op] = reg.Histogram("rpc_" + verb + "_bytes_out")
	}
	return t
}

// Instrument attaches a metrics registry to the cluster: every conn
// reports per-verb round trips and the health counters track redials
// and the sticky fault. Call it before the cluster is shared across goroutines
// (typically right after NewCluster/Dial); nil detaches.
func (c *Cluster) Instrument(reg *obs.Registry) {
	tel := newRPCClientTelemetry(reg)
	c.tel = tel
	for _, cn := range c.conns {
		cn.tel = tel
	}
}

// Instrument attaches a metrics registry to the server: per-verb
// request counts/latency/bytes, plus the full engine instrumentation
// on the current engine and every engine a later Reset builds. Call it
// before Serve; nil detaches from future engines (the current one
// keeps its handles).
func (s *Server) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.tel = newRPCServerTelemetry(reg)
	if s.eng != nil && reg != nil {
		s.eng.Instrument(reg)
	}
}

// handle executes one request and returns the response frame, or nil
// when the request's context was cancelled (client gone — nothing to
// answer). The server mutex is held for the whole request, so match
// queries from one connection never interleave with mutations from
// another. With a registry attached, the request is counted and timed
// and its frame sizes observed.
func (s *Server) handle(ctx context.Context, payload []byte) []byte {
	t := s.tel
	if t == nil {
		return s.dispatch(ctx, payload)
	}
	var op byte
	if len(payload) > 0 {
		op = payload[0]
	}
	k := opIndex(op)
	start := t.reg.Now()
	resp := s.dispatch(ctx, payload)
	t.latency[k].Observe(t.reg.Now() - start)
	t.count[k].Inc()
	t.bytesIn[k].Observe(int64(len(payload)) + frameHeaderLen)
	if resp != nil {
		t.bytesOut[k].Observe(int64(len(resp)) + frameHeaderLen)
	}
	return resp
}

// roundTrip sends one request and reads its response, dialing (or
// redialing) first when needed. Dial and IO deadlines derive from
// ctx; on cancellation the in-flight IO is interrupted immediately
// and the connection is discarded (the stream is mid-frame), to be
// redialed by the next call. Transport errors come back wrapped in
// ErrTransport; server-reported application errors come back as-is
// and leave the connection healthy. With a registry attached, the
// round trip's latency and wire bytes are observed per verb.
func (c *conn) roundTrip(ctx context.Context, req []byte) ([]byte, error) {
	t := c.tel
	if t == nil {
		return c.roundTrip1(ctx, req)
	}
	k := opIndex(req[0])
	// With tracing on, each round trip under a traced operation gets
	// its own "rpc.<verb>" span; callLocked reads it back out of ctx
	// to stamp the wire header, and the server opens its handler span
	// as this span's remote child. Ops arriving with no parent in ctx
	// (ctx-free lifecycle verbs) stay span-free rather than starting
	// orphan roots.
	var sp *obs.Span
	if req[0] != opHello && t.reg.Tracing() {
		if parent := obs.SpanFromContext(ctx); parent != nil {
			sp = t.reg.StartSpan("rpc."+verbNames[k], parent.Context())
			ctx = obs.ContextWithSpan(ctx, sp)
		}
	}
	start := t.reg.Now()
	resp, err := c.roundTrip1(ctx, req)
	sp.End()
	t.latency[k].Observe(t.reg.Now() - start)
	t.bytes[k].Observe(int64(len(req)+len(resp)) + 2*frameHeaderLen)
	if err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		// callLocked flattens the cause into its ErrTransport wrap, so
		// the trip is detected from the context, not the error chain.
		t.deadlineTrips.Inc()
	}
	return resp, err
}
