package client

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"

	"github.com/fcds/fcds/internal/server/wire"
)

// discardConn swallows every write, so a Client built on it runs the
// whole send path (frame assembly, pending slot, burst flush) with no
// peer and no read loop.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// newTestClient returns a client over nc, with no read loop, whose
// pending FIFO never has to grow within n sends.
func newTestClient(nc net.Conn, n int) *Client {
	c := &Client{nc: nc, bw: bufio.NewWriterSize(nc, writeBurst), version: wire.Version, pending: make([]chan response, 0, n)}
	c.drained = sync.NewCond(&c.pmu)
	return c
}

// captureConn records what a flush writes and fails every waiting
// operation, standing in for a server that reads a frame and hangs up.
type captureConn struct {
	net.Conn
	c   *Client
	got []byte
}

func (w *captureConn) Write(p []byte) (int, error) {
	w.got = append(w.got, p...)
	w.c.pmu.Lock()
	for _, ch := range w.c.pending {
		if ch != nil {
			ch <- response{err: ErrClosed}
		}
	}
	w.c.pending = w.c.pending[:0]
	w.c.pmu.Unlock()
	return len(p), nil
}

// TestEncoderFrames pins the bytes each keyed-batch and query method
// puts on the wire: frame type, then the table name, the key-type byte,
// the count, the key run and the value run, spelled out field by field.
func TestEncoderFrames(t *testing.T) {
	sk, uk := []string{"a", "bc"}, []uint64{7, 1 << 40}
	uv, fv, sv := []uint64{3, 1 << 63}, []float64{0.5, -2}, []string{"x", ""}
	head := func(kt byte) []byte {
		p := wire.AppendString(nil, "t")
		p = append(p, kt)
		return wire.AppendUvarint(p, 2)
	}
	strKeys := func(p []byte) []byte { return wire.AppendString(wire.AppendString(p, "a"), "bc") }
	u64Keys := func(p []byte) []byte { return wire.AppendUint64(wire.AppendUint64(p, 7), 1<<40) }
	u64Vals := func(p []byte) []byte { return wire.AppendUint64(wire.AppendUint64(p, 3), 1<<63) }
	fVals := func(p []byte) []byte { return wire.AppendFloat64(wire.AppendFloat64(p, 0.5), -2) }
	sVals := func(p []byte) []byte { return wire.AppendString(wire.AppendString(p, "x"), "") }
	cases := []struct {
		name    string
		send    func(c *Client) error
		typ     byte
		payload []byte
	}{
		{"IngestU64", func(c *Client) error { return c.IngestU64("t", uk, uv) },
			wire.FrameKeyedBatch, u64Vals(u64Keys(head(wire.KeyTypeUint64)))},
		{"Ingest", func(c *Client) error { return c.Ingest("t", sk, uv) },
			wire.FrameKeyedBatch, u64Vals(strKeys(head(wire.KeyTypeString)))},
		{"IngestFloat", func(c *Client) error { return c.IngestFloat("t", sk, fv) },
			wire.FrameKeyedBatch, fVals(strKeys(head(wire.KeyTypeString)))},
		{"IngestFloatU64", func(c *Client) error { return c.IngestFloatU64("t", uk, fv) },
			wire.FrameKeyedBatch, fVals(u64Keys(head(wire.KeyTypeUint64)))},
		{"IngestStrings", func(c *Client) error { return c.IngestStrings("t", sk, sv) },
			wire.FrameKeyedStringBatch, sVals(strKeys(head(wire.KeyTypeString)))},
		{"IngestStringsU64", func(c *Client) error { return c.IngestStringsU64("t", uk, sv) },
			wire.FrameKeyedStringBatch, sVals(u64Keys(head(wire.KeyTypeUint64)))},
		{"QueryCompact", func(c *Client) error { _, _, _, err := c.QueryCompact("t", "bc"); return err },
			wire.FrameQuery, wire.AppendString(append(wire.AppendString(nil, "t"), wire.KeyTypeString), "bc")},
		{"QueryCompactU64", func(c *Client) error { _, _, _, err := c.QueryCompactU64("t", 1<<40); return err },
			wire.FrameQuery, wire.AppendUint64(append(wire.AppendString(nil, "t"), wire.KeyTypeUint64), 1<<40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &captureConn{}
			c := newTestClient(w, 1)
			w.c = c
			tc.send(c) // a query fails once its frame is written
			if err := c.flushWrites(); err != nil {
				t.Fatal(err)
			}
			want := wire.AppendHeader(nil, wire.Version, tc.typ, len(tc.payload))
			want = append(want, tc.payload...)
			if !bytes.Equal(w.got, want) {
				t.Fatalf("frame\n got %x\nwant %x", w.got, want)
			}
		})
	}
}

// TestIngestEncodeZeroAllocs: a keyed batch goes from the caller's
// slices into the write buffer, and out through a burst flush, without
// allocating, for every key and value type.
func TestIngestEncodeZeroAllocs(t *testing.T) {
	const n, runs = 256, 200
	uk, uv, fv := make([]uint64, n), make([]uint64, n), make([]float64, n)
	sk, sv := make([]string, n), make([]string, n)
	for i := range n {
		uk[i], uv[i], fv[i] = uint64(i)*0x9e3779b97f4a7c15, uint64(i), float64(i)/3
		sk[i], sv[i] = string(rune('a'+i%26))+"key", "item"
	}
	for name, send := range map[string]func(c *Client) error{
		"IngestU64":        func(c *Client) error { return c.IngestU64("t", uk, uv) },
		"Ingest":           func(c *Client) error { return c.Ingest("t", sk, uv) },
		"IngestFloat":      func(c *Client) error { return c.IngestFloat("t", sk, fv) },
		"IngestFloatU64":   func(c *Client) error { return c.IngestFloatU64("t", uk, fv) },
		"IngestStrings":    func(c *Client) error { return c.IngestStrings("t", sk, sv) },
		"IngestStringsU64": func(c *Client) error { return c.IngestStringsU64("t", uk, sv) },
	} {
		// Enough warm-up sends to grow the write buffer past a burst.
		c := newTestClient(discardConn{}, 2*runs+64)
		for range 64 {
			if err := send(c); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(runs, func() { send(c) }); avg != 0 {
			t.Errorf("%s allocates %.1f allocs/op, want 0", name, avg)
		}
	}
}
