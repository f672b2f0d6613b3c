package client

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"github.com/fcds/fcds/internal/server/wire"
)

// pipeServer serves a scripted server on the far end of a net.Pipe and
// returns the client's end. It answers HELLO with this build's version
// and hands every later frame, numbered from 1, to answer, which writes
// the response (or holds it back); an error from answer hangs up.
func pipeServer(t *testing.T, answer func(w io.Writer, n int, typ byte, payload []byte) error) net.Conn {
	t.Helper()
	cconn, sconn := net.Pipe()
	t.Cleanup(func() { sconn.Close() })
	go func() {
		defer sconn.Close()
		fr := wire.NewFrameReader(sconn, 0, 0)
		for n := 0; ; n++ {
			_, typ, _, payload, err := fr.Next()
			if err != nil {
				return
			}
			if n == 0 {
				err = wire.WriteFrame(sconn, wire.Version, wire.FrameHello, []byte{wire.Version})
			} else {
				err = answer(sconn, n, typ, payload)
			}
			if err != nil {
				return
			}
		}
	}()
	return cconn
}

// TestClientRejectsFlaggedResponse: a response frame with a nonzero
// flags byte (6) or reserved byte (7) is a connection-fatal framing
// error. The synchronous call it answers and the two asynchronous acks
// still pending fail with it, and the next call returns it latched.
func TestClientRejectsFlaggedResponse(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int
	}{{"flags", 6}, {"reserved", 7}} {
		t.Run(tc.name, func(t *testing.T) {
			nc := pipeServer(t, func(w io.Writer, n int, typ byte, payload []byte) error {
				if n < 3 {
					return nil // hold the two ingest acks back
				}
				// The bad frame, then a hang-up: a client that took the
				// frame as an ack would see EOF, not a framing error.
				bad := wire.AppendHeader(nil, wire.Version, wire.FrameOK, 0)
				bad[tc.at] = 1
				if _, err := w.Write(bad); err != nil {
					return err
				}
				return io.EOF
			})
			c, err := New(nc)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for range 2 {
				if err := c.IngestU64("t", []uint64{1}, []uint64{2}); err != nil {
					t.Fatal(err)
				}
			}
			_, _, _, qerr := c.QueryCompactU64("t", 1)
			if !errors.Is(qerr, wire.ErrBadHeader) {
				t.Fatalf("query answered by a bad header: %v, want ErrBadHeader", qerr)
			}
			if err := c.Flush(); !errors.Is(err, wire.ErrBadHeader) {
				t.Fatalf("Flush with two acks pending: %v, want the latched ErrBadHeader", err)
			}
			if _, err := c.Health(); !errors.Is(err, wire.ErrBadHeader) {
				t.Fatalf("next call: %v, want the latched ErrBadHeader", err)
			}
		})
	}
}

// teeConn records every byte the client writes before passing it on,
// as TestEncoderFrames's captureConn does.
type teeConn struct {
	net.Conn
	got []byte
}

func (w *teeConn) Write(p []byte) (int, error) {
	w.got = append(w.got, p...)
	return w.Conn.Write(p)
}

// TestFramingAcrossWriteBuffer: frames that cross the 64 KiB write
// buffer's boundary — a 1 MiB push blob, a push blob that straddles the
// buffer, a keyed batch larger than the buffer, and async ingests from
// one goroutine interleaved with synchronous queries from another —
// reach the connection whole and byte-exact, in the order their
// operations enqueued them, and every answer reaches the operation that
// sent the frame. The server answers a push with an error frame naming
// its source and a query with a blob holding its key, so an answer
// delivered to another operation shows.
func TestFramingAcrossWriteBuffer(t *testing.T) {
	frame := func(typ byte, payload []byte) []byte {
		return append(wire.AppendHeader(nil, wire.Version, typ, len(payload)), payload...)
	}
	pushPayload := func(source string, blob []byte) []byte {
		return append(wire.AppendString(wire.AppendString(nil, "t"), source), blob...)
	}
	batchPayload := func(keys, vals []uint64) []byte {
		p := append(wire.AppendString(nil, "t"), wire.KeyTypeUint64)
		p = wire.AppendUvarint(p, uint64(len(keys)))
		for _, k := range keys {
			p = wire.AppendUint64(p, k)
		}
		for _, v := range vals {
			p = wire.AppendUint64(p, v)
		}
		return p
	}
	queryPayload := func(key uint64) []byte {
		return wire.AppendUint64(append(wire.AppendString(nil, "t"), wire.KeyTypeUint64), key)
	}
	run := func(n int, seed uint64) (keys, vals []uint64) {
		keys, vals = make([]uint64, n), make([]uint64, n)
		for i := range n {
			keys[i], vals[i] = seed+uint64(i)*0x9e3779b97f4a7c15, seed^uint64(i)
		}
		return keys, vals
	}
	blob := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*31) ^ seed
		}
		return b
	}

	nc := pipeServer(t, func(w io.Writer, _ int, typ byte, payload []byte) error {
		r := wire.Reader{Buf: payload}
		r.StringView() // the table
		switch typ {
		case wire.FrameSnapshotPush:
			return wire.WriteFrame(w, wire.Version, wire.FrameErr, wire.AppendErrPayload(nil, wire.ErrCodeBadPayload, r.String()))
		case wire.FrameQuery:
			r.Byte() // the key type
			return wire.WriteFrame(w, wire.Version, wire.FrameValue, wire.AppendUint64([]byte{1, 1}, r.Uint64()))
		}
		return wire.WriteFrame(w, wire.Version, wire.FrameOK, nil)
	})
	tee := &teeConn{Conn: nc}
	c, err := New(tee)
	if err != nil {
		t.Fatal(err)
	}
	want := frame(wire.FrameHello, []byte{wire.Version})

	push := func(source string, b []byte) {
		t.Helper()
		var se *ServerError
		if err := c.PushSnapshotFrom("t", source, b); !errors.As(err, &se) || se.Msg != source {
			t.Fatalf("push %q answered with %v", source, err)
		}
		want = append(want, frame(wire.FrameSnapshotPush, pushPayload(source, b))...)
	}
	ingest := func(keys, vals []uint64) {
		t.Helper()
		if err := c.IngestU64("t", keys, vals); err != nil {
			t.Fatal(err)
		}
		want = append(want, frame(wire.FrameKeyedBatch, batchPayload(keys, vals))...)
	}

	push("big", blob(1<<20, 1))
	ingest(run(2000, 1)) // 32 KiB buffered, so the next blob straddles the buffer's end
	push("straddle", blob(48<<10, 2))
	ingest(run(5000, 2)) // 80 KiB: larger than the buffer
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tee.got, want) {
		t.Fatalf("sequential frames: captured %d bytes, want %d, equal up to %d",
			len(tee.got), len(want), commonPrefix(tee.got, want))
	}
	seq := len(want)

	// Two goroutines: async ingests beside synchronous queries.
	const batches, queries = 200, 100
	var batchFrames, queryFrames [][]byte
	for i := range batches {
		batchFrames = append(batchFrames, frame(wire.FrameKeyedBatch, batchPayload(run(300, uint64(i)<<32))))
	}
	for i := range queries {
		queryFrames = append(queryFrames, frame(wire.FrameQuery, queryPayload(uint64(i)<<8|7)))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range batches {
			keys, vals := run(300, uint64(i)<<32)
			if err := c.IngestU64("t", keys, vals); err != nil {
				errs <- err
				return
			}
		}
		if err := c.Flush(); err != nil {
			errs <- err
		}
	}()
	go func() {
		defer wg.Done()
		for i := range queries {
			key := uint64(i)<<8 | 7
			kind, b, found, err := c.QueryCompactU64("t", key)
			if err != nil || !found || kind != 1 || !bytes.Equal(b, wire.AppendUint64(nil, key)) {
				errs <- errors.New("a query got another operation's answer")
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Every captured frame after the sequential part is the next frame
	// its goroutine sent, byte for byte, and nothing is left over.
	fr := wire.NewFrameReader(bytes.NewReader(tee.got[seq:]), 0, 0)
	for {
		version, typ, flags, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, wire.HeaderSize, wire.HeaderSize+len(payload))
		wire.PutHeader(got, version, typ, flags, len(payload))
		got = append(got, payload...)
		next := &batchFrames
		if typ == wire.FrameQuery {
			next = &queryFrames
		}
		if len(*next) == 0 || !bytes.Equal(got, (*next)[0]) {
			t.Fatalf("captured frame type %#x (%d bytes) is not the next one its goroutine sent", typ, len(got))
		}
		*next = (*next)[1:]
	}
	if len(batchFrames) != 0 || len(queryFrames) != 0 {
		t.Fatalf("%d batch and %d query frames never reached the connection", len(batchFrames), len(queryFrames))
	}
}

// commonPrefix is the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
