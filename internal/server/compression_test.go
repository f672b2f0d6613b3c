package server_test

import (
	"net"
	"testing"

	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/theta"
)

// TestCompressionNegotiatedRoundTrip drives keyed and string-item
// batches through a client that negotiated per-frame compression and
// verifies the table sees exactly what an uncompressed client would
// have delivered.
func TestCompressionNegotiatedRoundTrip(t *testing.T) {
	tab := newThetaTable(t, 2)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(addr, client.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Compressed() {
		t.Fatal("server refused compression it should support by default")
	}

	// Highly repetitive batches — the case compression exists for.
	keys := make([]string, 4096)
	vals := make([]uint64, 4096)
	for i := range keys {
		keys[i] = []string{"alpha", "beta", "gamma"}[i%3]
		vals[i] = uint64(i)
	}
	for round := 0; round < 4; round++ {
		if err := c.Ingest("ev", keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.IngestStrings("ev", keys[:64], keys[:64]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := c.PullSnapshot("ev"); err != nil { // drains writer buffers
		t.Fatal(err)
	}
	kind, blob, found, err := c.QueryCompact("ev", "alpha")
	if err != nil || !found {
		t.Fatalf("query: found=%v err=%v", found, err)
	}
	if kind != 1 {
		t.Fatalf("query kind = %d, want KindTheta", kind)
	}
	ca, err := theta.UnmarshalCompact(blob)
	if err != nil {
		t.Fatal(err)
	}
	// 4 rounds over the same 1366 distinct values for key "alpha" plus
	// one distinct string item, exact below the sketch's 2048 capacity.
	if got := ca.Estimate(); got != 1367 {
		t.Fatalf("estimate %v, want 1367 distinct items", got)
	}
}

// TestCompressionDisabledServer pins the NoCompression escape hatch:
// the HELLO downshifts (Compressed() reports false) and the same
// client keeps working uncompressed.
func TestCompressionDisabledServer(t *testing.T) {
	tab := newThetaTable(t, 1)
	s, addr := startServer(t, server.Config{NoCompression: true})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr, client.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Compressed() {
		t.Fatal("NoCompression server accepted the compression feature")
	}
	if err := c.Ingest("ev", []string{"k"}, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// dialCompressedRaw opens a raw socket and completes an extended HELLO
// that negotiates the compression feature, returning the socket ready
// for hand-built frames.
func dialCompressedRaw(t *testing.T, addr string) (net.Conn, *[]byte) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	hello := []byte{wire.Version, wire.FeatureCompression}
	if err := wire.WriteFrame(nc, wire.Version, wire.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	buf := new([]byte)
	_, typ, payload, err := wire.ReadFrame(nc, buf, 0)
	if err != nil || typ != wire.FrameHello {
		t.Fatalf("hello: typ=%#x err=%v", typ, err)
	}
	if len(payload) != 2 || payload[1]&wire.FeatureCompression == 0 {
		t.Fatalf("hello reply %x: compression not negotiated", payload)
	}
	return nc, buf
}

// writeFlagged hand-builds a frame with the compressed flag set —
// wire.WriteFrame never sets flags, which is exactly why hostile
// payloads need this.
func writeFlagged(t *testing.T, nc net.Conn, typ byte, payload []byte) {
	t.Helper()
	frame := make([]byte, wire.HeaderSize+len(payload))
	wire.PutHeader(frame, wire.Version, typ, wire.FlagCompressed, len(payload))
	copy(frame[wire.HeaderSize:], payload)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// TestCompressedHostileFrames extends the hostile-frame suite to the
// compressed path: garbage, truncated, and length-lying compressed
// payloads must each earn an ERR frame on a connection that stays up,
// and a well-formed compressed frame afterwards must still ingest.
func TestCompressedHostileFrames(t *testing.T) {
	tab := newThetaTable(t, 1)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	nc, buf := dialCompressedRaw(t, addr)

	// A valid uncompressed request body to mutate.
	body := wire.AppendString(nil, "ev")
	body = append(body, wire.KeyTypeString)
	body = wire.AppendUvarint(body, 2)
	body = wire.AppendString(body, "a")
	body = wire.AppendString(body, "b")
	body = wire.AppendUint64(body, 10)
	body = wire.AppendUint64(body, 20)
	var comp wire.Compressor
	enc, err := comp.AppendCompressed(nil, body)
	if err != nil {
		t.Fatal(err)
	}

	hostile := [][]byte{
		{0xff, 0xee, 0xdd, 0xcc},  // garbage, not even a valid prefix
		enc[:len(enc)-len(enc)/3], // truncated deflate stream
		append(wire.AppendUvarint(nil, uint64(len(body))+5), enc[1:]...), // length lies
		{}, // empty compressed payload
	}
	for i, p := range hostile {
		writeFlagged(t, nc, wire.FrameKeyedBatch, p)
		_, typ, resp, err := wire.ReadFrame(nc, buf, 0)
		if err != nil || typ != wire.FrameErr {
			t.Fatalf("hostile %d: typ=%#x err=%v", i, typ, err)
		}
		if code, _, _ := wire.ParseErrPayload(resp); code != wire.ErrCodeBadPayload {
			t.Fatalf("hostile %d: error code = %d, want ErrCodeBadPayload", i, code)
		}
	}

	// The connection survived all of it: a good compressed frame works.
	writeFlagged(t, nc, wire.FrameKeyedBatch, enc)
	_, typ, resp, err := wire.ReadFrame(nc, buf, 0)
	if err != nil || typ != wire.FrameOK {
		t.Fatalf("post-hostile ingest: typ=%#x err=%v payload=%x", typ, err, resp)
	}
}

// TestCompressedFlagWithoutNegotiation pins the fatal path: a flagged
// frame on a connection that never negotiated the feature is a framing
// error (the peer is confused or malicious), not a request error.
func TestCompressedFlagWithoutNegotiation(t *testing.T) {
	tab := newThetaTable(t, 1)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.Version, wire.FrameHello, []byte{wire.Version}); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	if _, typ, _, err := wire.ReadFrame(nc, &buf, 0); err != nil || typ != wire.FrameHello {
		t.Fatalf("hello: typ=%#x err=%v", typ, err)
	}

	writeFlagged(t, nc, wire.FrameKeyedBatch, []byte{0x01})
	_, typ, resp, err := wire.ReadFrame(nc, &buf, 0)
	if err != nil || typ != wire.FrameErr {
		t.Fatalf("unnegotiated flag: typ=%#x err=%v", typ, err)
	}
	if code, _, _ := wire.ParseErrPayload(resp); code != wire.ErrCodeBadFrame {
		t.Fatalf("error code = %d, want ErrCodeBadFrame", code)
	}
	// Fatal: the server hangs up after a framing error.
	if _, _, _, err := wire.ReadFrame(nc, &buf, 0); err == nil {
		t.Fatal("connection still open after framing error")
	}
}
