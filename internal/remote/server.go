package remote

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/series"
)

// Server is one shard of a distributed evaluation cluster: it owns an
// engine.Engine over its slice of the training data and answers the
// protocol's match and lifecycle RPCs. It holds no cluster-level
// state — rows are named by the global RowIDs the scatter/gather
// client assigns, so the server needs no idea which slice it is.
//
// One mutex serializes request handling across connections, which
// upholds the engine's contract that mutations never run concurrently
// with evaluation — a cluster has a single writer (its Cluster), but
// a read-only second client (Sync) must not race an Append either.
type Server struct {
	opt engine.Options
	// tel is set by Instrument before Serve; nil = telemetry disabled.
	// handle reads it without the mutex, which is why attaching after
	// connections are live is not supported.
	tel *rpcServerTelemetry

	mu  sync.Mutex
	eng *engine.Engine // guarded by mu: swapped wholesale by Reset
	reg *obs.Registry  // guarded by mu: re-instruments the engine a Reset builds
}

// NewServer returns a server with no dataset yet: the first Reset RPC
// (a Cluster.Load) ships its slice. opt shapes every engine the
// server builds — shard count and workers — exactly as for an
// in-process engine.
func NewServer(opt engine.Options) *Server {
	return &Server{opt: opt.Clamped()}
}

// NewServerData returns a server preloaded with a dataset (the
// shardserver -csv path): a Cluster.Sync can then adopt the
// server-held rows instead of scattering its own.
func NewServerData(ds *series.Dataset, opt engine.Options) *Server {
	s := NewServer(opt)
	s.eng = engine.New(ds, s.opt)
	return s
}

// Serve accepts connections until the listener closes, handling each
// on its own goroutine. All connections share the server's engine;
// ctx is the serve root — cancelling it aborts every in-flight
// request (the accept loop itself ends when the listener closes).
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(ctx, conn)
	}
}

// ServeConn runs the request/response loop for one connection until
// it closes, and returns the transport error that ended it (nil for a
// clean EOF). A dedicated reader goroutine pulls the next frame while
// the previous request executes; since a well-behaved client never
// pipelines, bytes arriving early mean the client hung up — the
// reader then cancels the in-flight request's context, so a
// mid-MatchBatch disconnect abandons the batch promptly instead of
// computing results nobody will read. Every goroutine is joined
// before ServeConn returns. ctx is the connection's root: requests
// inherit it, so cancelling it (process shutdown) aborts them the
// same way a client disconnect does.
func (s *Server) ServeConn(ctx context.Context, nc net.Conn) error {
	defer nc.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	frames := make(chan []byte)
	readErr := make(chan error, 1)
	go func() {
		br := bufio.NewReaderSize(nc, 64<<10)
		for {
			p, err := readFrame(br)
			if err != nil {
				readErr <- err
				cancel()
				return
			}
			select {
			case frames <- p:
			case <-ctx.Done():
				return
			}
		}
	}()

	bw := bufio.NewWriterSize(nc, 64<<10)
	for {
		var p []byte
		select {
		case <-ctx.Done():
			// Only the reader cancels while we run; its error is
			// already buffered.
			err := <-readErr
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		case p = <-frames:
		}
		resp := s.handle(ctx, p)
		if resp == nil {
			// Cancelled mid-request: the connection is dead, the next
			// select observes it.
			continue
		}
		if err := writeFrame(bw, resp); err != nil {
			return err
		}
	}
}

// errFrame builds an application-error response; the connection stays
// usable.
func errFrame(format string, args ...any) []byte {
	return append([]byte{opError}, fmt.Sprintf(format, args...)...)
}

// dispatch is the handle implementation; the exported-path wrapper
// (telemetry.go) adds the optional per-verb instrumentation.
func (s *Server) dispatch(ctx context.Context, payload []byte) []byte {
	if len(payload) == 0 {
		return errFrame("empty request")
	}
	op, body := payload[0], payload[1:]
	d := &dec{b: body}

	// Version-2 trace header: every non-hello request carries
	// (trace id, parent span id) before its body — zeros from an
	// untraced client. When this server traces too, the request runs
	// under a span adopted from the client's trace, so its trace file
	// stitches under the client's (tools/traceview).
	if op != opHello {
		trace := d.uvarint()
		parent := d.uvarint()
		if d.err != nil {
			return errFrame("%v", d.err)
		}
		if t := s.tel; t != nil {
			if sp := t.reg.StartSpanRemote("serve."+verbNames[opIndex(op)], trace, parent); sp != nil {
				defer sp.End()
				ctx = obs.ContextWithSpan(ctx, sp)
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// Ops that work without a dataset.
	switch op {
	case opHello:
		if v := d.uvarint(); d.err != nil || v != protoVersion {
			return errFrame("protocol version %d, server speaks %d", v, protoVersion)
		}
		return binary.AppendUvarint([]byte{opHello}, protoVersion)
	case opEpoch:
		var e uint64
		if s.eng != nil {
			e = s.eng.Epoch()
		}
		return appendU64([]byte{opEpoch}, e)
	case opLiveLen:
		n := 0
		if s.eng != nil {
			n = s.eng.LiveLen()
		}
		return binary.AppendUvarint([]byte{opLiveLen}, uint64(n))
	case opReset:
		width := int(d.uvarint())
		horizon := int(d.uvarint())
		inputs, targets, ids := d.rows(width)
		if d.err != nil {
			return errFrame("%v", d.err)
		}
		ds := &series.Dataset{Inputs: inputs, Targets: targets, IDs: ids, D: width, Horizon: horizon}
		s.eng = engine.New(ds, s.opt)
		if s.reg != nil {
			// A Reset swaps the whole engine; the replacement inherits
			// the server's instrumentation (same registry, so the
			// engine metrics continue across reloads).
			s.eng.Instrument(s.reg)
		}
		return appendU64([]byte{opReset}, s.eng.Epoch())
	}

	if s.eng == nil {
		return errFrame("no dataset loaded (Reset first)")
	}

	switch op {
	case opSnapshot:
		// A snapshot is a query: it ships the engine's rows as they
		// are and never mutates (no epoch bump), or a read-only Sync
		// client would poison the writing cluster's reconnect check.
		ds := s.eng.Data()
		b := []byte{opSnapshot}
		b = binary.AppendUvarint(b, uint64(ds.D))
		b = binary.AppendUvarint(b, uint64(ds.Horizon))
		b = appendU64(b, s.eng.Epoch())
		return appendRows(b, ds.Inputs, ds.Targets, ds.IDs)

	case opMatchBatch:
		rules := d.rules()
		if d.err != nil {
			return errFrame("%v", d.err)
		}
		if len(rules) > 0 && rules[0].D() != s.eng.Data().D {
			return errFrame("rules of width %d against a width-%d dataset", rules[0].D(), s.eng.Data().D)
		}
		matched := s.eng.MatchBatch(ctx, rules)
		if ctx.Err() != nil {
			return nil
		}
		ids := s.eng.Data().IDs
		b := []byte{opMatchBatch}
		scratch := make([]series.RowID, 0, 256)
		for _, m := range matched {
			scratch = scratch[:0]
			for _, pos := range m {
				scratch = append(scratch, ids[pos])
			}
			b = appendIDs(b, scratch)
		}
		return b

	case opAppend:
		width := int(d.uvarint())
		inputs, targets, ids := d.rows(width)
		if d.err != nil {
			return errFrame("%v", d.err)
		}
		if width != s.eng.Data().D {
			return errFrame("append of width %d against a width-%d dataset", width, s.eng.Data().D)
		}
		if err := s.eng.AppendRows(inputs, targets, ids); err != nil {
			return errFrame("%v", err)
		}
		return appendU64([]byte{opAppend}, s.eng.Epoch())

	case opDelete:
		ids := d.idList(d.count())
		if d.err != nil {
			return errFrame("%v", d.err)
		}
		n := s.eng.Delete(ids)
		b := binary.AppendUvarint([]byte{opDelete}, uint64(n))
		return appendU64(b, s.eng.Epoch())
	}
	return errFrame("unknown opcode %d", op)
}
