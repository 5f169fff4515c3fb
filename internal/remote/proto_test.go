package remote

// Version-skew regression tests. Protocol version 2 moved the trace
// header into every non-hello request frame and version 3 retired
// opcode 9; these tests pin the failure mode when one side speaks an
// older version: the hello exchange fails fast with a transport error
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
)

// TestHelloRejectsOldClient drives a hand-crafted version-1 hello
// against a current server: the server answers an error frame naming
// both versions and keeps the stream in lockstep.
func TestHelloRejectsOldClient(t *testing.T) {
	srv := NewServer(engine.Options{Shards: 2})
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeConn(context.Background(), server) }()
	defer func() { client.Close(); <-done }()

	client.SetDeadline(time.Now().Add(5 * time.Second))
	bw := bufio.NewWriter(client)
	hello := binary.AppendUvarint([]byte{opHello}, 1) // a v1 client's hello
	if err := writeFrame(bw, hello); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(bufio.NewReader(client))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) == 0 || resp[0] != opError {
		t.Fatalf("response op = %v, want opError", resp)
	}
	msg := string(resp[1:])
	if !strings.Contains(msg, "protocol version 1") || !strings.Contains(msg, fmt.Sprintf("speaks %d", protoVersion)) {
		t.Fatalf("error %q does not name both versions", msg)
	}
}

// v1ServerDialer fakes an old (version-1) shard server: it rejects
// the client's current hello with the error frame a v1 server
// produces, then hangs up.
type v1ServerDialer struct{}

func (v1ServerDialer) Addr() string { return "v1server" }

func (v1ServerDialer) DialContext(ctx context.Context) (net.Conn, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		p, err := readFrame(bufio.NewReader(server))
		if err != nil || len(p) == 0 || p[0] != opHello {
			return
		}
		v, _ := binary.Uvarint(p[1:])
		writeFrame(bufio.NewWriter(server), errFrame("protocol version %d, server speaks %d", v, 1))
	}()
	return client, nil
}

// TestHelloRejectsOldServer dials a version-1 server through the real
// client stack: the first RPC fails fast with an ErrTransport-wrapped
// hello rejection instead of desyncing on the widened request frames.
func TestHelloRejectsOldServer(t *testing.T) {
	c, err := NewCluster([]Dialer{v1ServerDialer{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = c.Load(ctx, testDataset(t, 50, 3, false))
	if err == nil {
		t.Fatal("Load against a v1 server succeeded, want hello rejection")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want errors.Is(_, ErrTransport)", err)
	}
	if !strings.Contains(err.Error(), "server speaks 1") {
		t.Fatalf("err %q does not surface the server's version", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hello mismatch hit the deadline instead of failing fast: %v", err)
	}
}

// TestUnknownOpcodeRejected sends opcodes a current server does not
// serve — the retired opcode 9 and one past the table — through the
// real client stack: each comes back as the typed serverError naming
// the opcode, the connection stays in lockstep, and the cluster's
// sticky transport failure is not tripped.
func TestUnknownOpcodeRejected(t *testing.T) {
	c, _ := newLoopbackCluster(t, 1, engine.Options{Shards: 2}, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Load(ctx, testDataset(t, 50, 3, false)); err != nil {
		t.Fatal(err)
	}
	for _, op := range []byte{9, byte(nOps)} {
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
