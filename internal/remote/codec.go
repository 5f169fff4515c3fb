// Package remote takes the evaluation engine multi-node: a
// Server owns an engine.Engine over its slice of the training data
// and answers match and lifecycle RPCs over a length-prefixed binary
// protocol, and a Cluster is the scatter/gather client that
// implements the full core.Store contract across any number of
// servers — so the paper's evolutionary math, the evaluator and its
// result cache all run unchanged against a training set that no
// single machine holds.
//
// The Cluster keeps the global bookkeeping: the merged dataset view
// (all rows in insertion order, i.e. ascending RowID), which server
// owns each row, and a composite epoch (its own mutation count plus
// the sum of every server's epoch) that stamps evaluation-cache keys,
// so no cached result can survive a remote mutation. Servers are deliberately dumb: they
// speak global RowIDs end to end (the snapshot and reset RPCs ship
// rows with their ids, appends adopt client-assigned ids via
// engine.AppendRows, match responses name rows by id), so no
// translation table exists to drift.
//
// Results are bit-identical to the in-process engine over the same
// rows: floats cross the wire as IEEE-754 bits (NaN payloads
// included), matched sets come back ascending per server and merge
// into ascending global order through one bitmap sweep, and all
// regression/fitness math stays client-side in core.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/series"
)

// ErrTransport marks every connection-level failure of the remote
// subsystem: dial errors, dropped or timed-out connections, protocol
// violations, and post-reconnect state divergence. The Cluster keeps
// the first one sticky (BackendErr), so a lost shard server surfaces
// as a wrapped error from the training loop instead of a hang or a
// silently wrong result.
var ErrTransport = errors.New("remote: transport failure")

// protoVersion is exchanged in the hello RPC; any wire-format change
// bumps it so mismatched binaries fail fast instead of desyncing.
//
// Version 2 added trace-context propagation: every non-hello request
// carries (trace id, parent span id) as two uvarints between the
// opcode and the body — zeros when the client isn't tracing. The hello
// frame itself kept its version-1 shape, so a version-skewed pairing
// in either direction still dies at the hello exchange instead of
// misparsing a body.
//
// Version 3 retired opcode 9 (a shard-layout verb the engine no longer
// has): a version-3 server answers it as an unknown opcode.
//
// Version 4 retired opcodes 7 (a server-side window no client sent:
// only the client sees the global row order, so it windows through
// deletes) and 8 (compaction, now part of every delete). A version-4
// server answers both as unknown opcodes.
const protoVersion = 4

// maxFrame bounds one protocol frame (256 MiB). Snapshots of larger
// datasets must be sharded across more servers; the bound keeps a
// corrupt length prefix from allocating unbounded memory.
const maxFrame = 1 << 28

// Opcodes. A request frame is the opcode followed by its body; the
// response echoes the opcode (or answers opError with a message).
const (
	opError      byte = 0
	opHello      byte = 1
	opSnapshot   byte = 2
	opReset      byte = 3
	opMatchBatch byte = 4
	opAppend     byte = 5
	opDelete     byte = 6
	// 7, 8 and 9 are retired (see protoVersion); never reuse them.
	opEpoch   byte = 10
	opLiveLen byte = 11
)

// flushWriter is the buffered sink frames are written to.
type flushWriter interface {
	io.Writer
	Flush() error
}

// writeFrame emits one length-prefixed frame and flushes it.
func writeFrame(w flushWriter, payload []byte) error {
	return writeFrame2(w, payload, nil)
}

// writeFrame2 emits one frame whose payload is head followed by body,
// without concatenating them: the client injects the version-2
// per-request trace header this way — a stack-built head in front of
// the caller's request bytes — with no per-RPC allocation.
func writeFrame2(w flushWriter, head, body []byte) error {
	n := len(head) + len(body)
	if n > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte limit", ErrTransport, n, maxFrame)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return w.Flush()
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte limit", ErrTransport, n, maxFrame)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// Append-style encoders. Floats travel as raw IEEE-754 bits so NaN
// payloads and signed zeros survive the trip — "bit-identical" is a
// contract, not an approximation.

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// appendIDs encodes ascending RowIDs as a first absolute value plus
// deltas, all uvarints — matched sets and row id columns are
// ascending by construction, so deltas stay small.
func appendIDs(b []byte, ids []series.RowID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	prev := series.RowID(0)
	for i, id := range ids {
		if i == 0 {
			b = binary.AppendUvarint(b, uint64(id))
		} else {
			b = binary.AppendUvarint(b, uint64(id-prev))
		}
		prev = id
	}
	return b
}

// appendRows encodes a block of patterns: count, then each row's
// input bits plus target bits, then the id column (delta-encoded).
// The row width is carried by the surrounding message, not the block.
func appendRows(b []byte, inputs [][]float64, targets []float64, ids []series.RowID) []byte {
	b = binary.AppendUvarint(b, uint64(len(inputs)))
	for i, row := range inputs {
		for _, v := range row {
			b = appendF64(b, v)
		}
		b = appendF64(b, targets[i])
	}
	return appendIDs(b, ids)
}

// appendRules encodes one generation's conditional parts: count and
// gene width, then per gene a wildcard flag and (for intervals) the
// bound bits. Only Cond crosses the wire — matching needs nothing
// else, and the consequent math never leaves the client.
func appendRules(b []byte, d int, rules []*core.Rule) []byte {
	b = binary.AppendUvarint(b, uint64(len(rules)))
	b = binary.AppendUvarint(b, uint64(d))
	for _, r := range rules {
		for _, iv := range r.Cond {
			if iv.Wildcard {
				b = append(b, 1)
				continue
			}
			b = append(b, 0)
			b = appendF64(b, iv.Lo)
			b = appendF64(b, iv.Hi)
		}
	}
	return b
}

// dec is a cursor over one frame body with a sticky error, so
// handlers decode linearly and check once.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		// A malformed frame is a protocol violation — transport class,
		// so the cluster's sticky BackendErr classifies it like any
		// other wire fault.
		d.err = fmt.Errorf("%w: decode: "+format, append([]any{ErrTransport}, args...)...)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// count reads a length prefix and sanity-bounds it against the bytes
// that could possibly encode that many elements (at least one byte
// each), so corrupt prefixes fail instead of allocating wildly.
func (d *dec) count() int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b))+1 {
		d.fail("count %d exceeds remaining frame", n)
		return 0
	}
	return int(n)
}

// ids decodes a delta-encoded ascending id list of length n.
func (d *dec) idList(n int) []series.RowID {
	if d.err != nil || n == 0 {
		return nil
	}
	ids := make([]series.RowID, n)
	var prev series.RowID
	for i := range ids {
		delta := series.RowID(d.uvarint())
		if i == 0 {
			prev = delta
		} else {
			prev += delta
		}
		ids[i] = prev
	}
	return ids
}

// rows decodes a block of patterns of width `width`. The width came
// off the wire too, so it is bounded against the remaining frame
// before anything is allocated — a corrupt or hostile frame must
// fail, not OOM or panic-crash the server.
func (d *dec) rows(width int) (inputs [][]float64, targets []float64, ids []series.RowID) {
	n := d.count()
	if d.err != nil {
		return nil, nil, nil
	}
	if width < 0 {
		d.fail("negative row width %d", width)
		return nil, nil, nil
	}
	if n > 0 {
		// Bound width first (one row needs width*8 bytes), which caps
		// both factors at len(d.b) ≤ maxFrame (2^28) — the product
		// below then cannot overflow 64-bit int.
		if width > len(d.b)/8 {
			d.fail("row width %d exceeds remaining frame", width)
			return nil, nil, nil
		}
		if need := n * (width + 1) * 8; need > len(d.b) {
			d.fail("row block of %d×%d patterns exceeds remaining frame", n, width)
			return nil, nil, nil
		}
	}
	inputs = make([][]float64, n)
	targets = make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, width)
		for j := range row {
			row[j] = d.f64()
		}
		inputs[i] = row
		targets[i] = d.f64()
	}
	ids = d.idList(d.count())
	if d.err == nil && len(ids) != n {
		d.fail("row block has %d rows but %d ids", n, len(ids))
	}
	return inputs, targets, ids
}

// rules decodes one generation's conditional parts.
func (d *dec) rules() []*core.Rule {
	n := d.count()
	width := int(d.uvarint())
	if d.err != nil {
		return nil
	}
	if width > len(d.b) {
		d.fail("rule width %d exceeds remaining frame", width)
		return nil
	}
	out := make([]*core.Rule, n)
	for i := range out {
		cond := make([]core.Interval, width)
		for j := range cond {
			switch d.byte() {
			case 1:
				cond[j] = core.Wild()
			case 0:
				cond[j] = core.Interval{Lo: d.f64(), Hi: d.f64()}
			default:
				d.fail("unknown gene kind")
				return nil
			}
		}
		out[i] = core.NewRule(cond)
	}
	return out
}
