package remote

// Version-skew regression tests. Protocol version 2 moved the trace
// header into every non-hello request frame, version 3 retired opcode
// 9 and version 4 retired opcodes 7 and 8; these tests pin the failure
// mode when one side speaks an older version: the hello exchange fails fast with a transport error
// in BOTH directions — never a desynchronized stream or a hang — and
// a retired opcode gets the same typed answer as an unknown one.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/series"
)

// TestHelloRejectsOldClient drives hand-crafted hellos from a
// version-1 client and from a client one version behind against a
// current server on one stream: the server answers each with an error
// frame naming both versions and keeps the stream in lockstep.
func TestHelloRejectsOldClient(t *testing.T) {
	srv := NewServer(engine.Options{})
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeConn(context.Background(), server) }()
	defer func() { client.Close(); <-done }()

	client.SetDeadline(time.Now().Add(5 * time.Second))
	bw := bufio.NewWriter(client)
	br := bufio.NewReader(client)
	for _, v := range []uint64{1, protoVersion - 1} {
		hello := binary.AppendUvarint([]byte{opHello}, v) // an old client's hello
		if err := writeFrame(bw, hello); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) == 0 || resp[0] != opError {
			t.Fatalf("v%d hello: response op = %v, want opError", v, resp)
		}
		msg := string(resp[1:])
		if !strings.Contains(msg, fmt.Sprintf("protocol version %d,", v)) || !strings.Contains(msg, fmt.Sprintf("speaks %d", protoVersion)) {
			t.Fatalf("v%d hello: error %q does not name both versions", v, msg)
		}
	}
}

// oldServerDialer fakes an old shard server speaking the given
// protocol version: it rejects the client's current hello with the
// error frame such a server produces, then hangs up.
type oldServerDialer struct{ version uint64 }

func (o oldServerDialer) Addr() string { return fmt.Sprintf("v%dserver", o.version) }

func (o oldServerDialer) DialContext(ctx context.Context) (net.Conn, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		p, err := readFrame(bufio.NewReader(server))
		if err != nil || len(p) == 0 || p[0] != opHello {
			return
		}
		v, _ := binary.Uvarint(p[1:])
		writeFrame(bufio.NewWriter(server), errFrame("protocol version %d, server speaks %d", v, o.version))
	}()
	return client, nil
}

// TestHelloRejectsOldServer dials a version-1 server and a server one
// version behind through the real client stack: the first RPC fails
// fast with an ErrTransport-wrapped hello rejection instead of
// desyncing on the widened request frames or sending a retired
// opcode.
func TestHelloRejectsOldServer(t *testing.T) {
	for _, v := range []uint64{1, protoVersion - 1} {
		c, err := NewCluster([]Dialer{oldServerDialer{v}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = c.Load(ctx, testDataset(t, 50, 3, false))
		cancel()
		c.Close()
		if err == nil {
			t.Fatalf("Load against a v%d server succeeded, want hello rejection", v)
		}
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("v%d: err = %v, want errors.Is(_, ErrTransport)", v, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("server speaks %d", v)) {
			t.Fatalf("v%d: err %q does not surface the server's version", v, err)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("v%d: hello mismatch hit the deadline instead of failing fast: %v", v, err)
		}
	}
}

// TestUnknownOpcodeRejected sends opcodes a current server does not
// serve — the retired opcodes 7, 8 and 9 and one past the table —
// through the
// real client stack: each comes back as the typed serverError naming
// the opcode, the connection stays in lockstep, and the cluster's
// sticky transport failure is not tripped.
func TestUnknownOpcodeRejected(t *testing.T) {
	c, _ := newLoopbackCluster(t, 1, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Load(ctx, testDataset(t, 50, 3, false)); err != nil {
		t.Fatal(err)
	}
	for _, op := range []byte{7, 8, 9, byte(nOps)} {
		_, err := c.conns[0].roundTrip(ctx, []byte{op})
		var se serverError
		if !errors.As(err, &se) {
			t.Fatalf("opcode %d: err = %v, want a serverError", op, err)
		}
		if errors.Is(err, ErrTransport) {
			t.Fatalf("opcode %d: an application error must not be a transport failure: %v", op, err)
		}
		if want := fmt.Sprintf("unknown opcode %d", op); !strings.Contains(err.Error(), want) {
			t.Fatalf("opcode %d: err %q does not say %q", op, err, want)
		}
		if _, err := c.conns[0].roundTrip(ctx, []byte{opEpoch}); err != nil {
			t.Fatalf("opcode %d: connection unusable afterwards: %v", op, err)
		}
	}
	if err := c.BackendErr(); err != nil {
		t.Fatalf("unknown opcode tripped the sticky failure: %v", err)
	}
}

// FuzzServerDispatch feeds arbitrary request sequences to the
// server's request handler, on a server with no dataset and on one
// with a dataset loaded. Each input is split into framed requests
// (splitRequests) that one server handles in order, so a request sees
// the state the ones before it left: a Reset to a NaN-degenerate
// dataset, then a MatchBatch against it, say. The handler must never
// panic, and every reply must echo its request's opcode or be an
// opError frame. The seed corpus holds one well-formed request per
// live opcode, the retired opcodes 7, 8 and 9, and sequences that
// reset, mutate and match.
func FuzzServerDispatch(f *testing.F) {
	ds := testDataset(f, 40, 3, false)
	ds.AssignIDs(0)
	untraced := func(op byte) []byte { return []byte{op, 0, 0} } // zero trace id and parent span
	rows := appendRows(nil, ds.Inputs[:4], ds.Targets[:4], []series.RowID{100, 101, 102, 103})
	resetTo := func(inputs [][]float64, targets []float64, ids []series.RowID) []byte {
		b := binary.AppendUvarint(untraced(opReset), uint64(ds.D))
		b = binary.AppendUvarint(b, uint64(ds.Horizon))
		return appendRows(b, inputs, targets, ids)
	}
	match := appendRules(untraced(opMatchBatch), ds.D, randomRules(ds, 3, 1))
	appendReq := append(binary.AppendUvarint(untraced(opAppend), uint64(ds.D)), rows...)
	deleteReq := appendIDs(untraced(opDelete), ds.IDs[5:9])
	nan := testDataset(f, 12, 3, true) // one input is NaN: the server's index falls back to scanning
	nan.AssignIDs(0)

	for _, req := range [][]byte{
		binary.AppendUvarint([]byte{opHello}, protoVersion),
		untraced(opSnapshot),
		resetTo(ds.Inputs[:4], ds.Targets[:4], []series.RowID{100, 101, 102, 103}),
		match,
		appendReq,
		deleteReq,
		untraced(opEpoch),
		untraced(opLiveLen),
		binary.AppendUvarint(untraced(7), 10), // the retired window verb's request
		untraced(8),
		untraced(9),
	} {
		f.Add(frameRequests(req))
	}
	f.Add(frameRequests(resetTo(nan.Inputs, nan.Targets, nan.IDs), appendRules(untraced(opMatchBatch), nan.D, randomRules(nan, 4, 2))))
	f.Add(frameRequests(resetTo(ds.Inputs[:10], ds.Targets[:10], ds.IDs[:10]), appendReq, deleteReq, match, untraced(opSnapshot)))

	f.Fuzz(func(t *testing.T, in []byte) {
		reqs := splitRequests(in)
		for _, srv := range []*Server{NewServer(engine.Options{}), NewServerData(cloneDataset(ds))} {
			for _, payload := range reqs {
				resp := srv.handle(context.Background(), payload)
				if len(resp) == 0 {
					t.Fatalf("request %x: empty reply", payload)
				}
				if resp[0] != opError && (len(payload) == 0 || resp[0] != payload[0]) {
					t.Fatalf("request %x: reply opcode %d, want the request's or opError", payload, resp[0])
				}
			}
		}
	})
}

// maxFuzzRequests bounds the requests one fuzz input is split into.
const maxFuzzRequests = 16

// splitRequests cuts a fuzz input into the requests it frames: each is
// a uvarint length followed by that many bytes. A length running past
// the end takes what is left, an unreadable length makes the rest one
// request, and the last of maxFuzzRequests takes the remainder.
func splitRequests(in []byte) [][]byte {
	var reqs [][]byte
	for len(in) > 0 {
		n, k := binary.Uvarint(in)
		if k <= 0 || len(reqs) == maxFuzzRequests-1 {
			return append(reqs, in)
		}
		in = in[k:]
		m := int(min(n, uint64(len(in))))
		reqs = append(reqs, in[:m])
		in = in[m:]
	}
	return reqs
}

// frameRequests is the inverse of splitRequests.
func frameRequests(reqs ...[]byte) []byte {
	var b []byte
	for _, r := range reqs {
		b = append(binary.AppendUvarint(b, uint64(len(r))), r...)
	}
	return b
}
