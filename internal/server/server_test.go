package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"testing"

	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// startServer spins up a server on a loopback listener and returns it
// with its address; cleanup closes it.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	s := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func newThetaTable(t *testing.T, writers int) *table.ThetaTable[string] {
	t.Helper()
	tab := table.NewTheta(table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: writers, Shards: 16},
		K:     2048, MaxError: 1,
	})
	t.Cleanup(tab.Close)
	return tab
}

// TestServerIngestQueryRollup drives the whole request surface over one
// connection: keyed batches, string-item batches, per-key queries,
// rollup and health.
func TestServerIngestQueryRollup(t *testing.T) {
	tab := newThetaTable(t, 2)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Version() != wire.Version {
		t.Fatalf("negotiated version %d", c.Version())
	}

	// 3 keys, disjoint items; key "a" additionally gets string items.
	keys := []string{"a", "b", "c", "a", "b", "c"}
	vals := []uint64{1, 2, 3, 4, 5, 6}
	for i := 0; i < 50; i++ {
		for j := range vals {
			vals[j] += 100
		}
		if err := c.Ingest("ev", keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.IngestStrings("ev", []string{"a", "a"}, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Per-key queries are relaxed (they may miss updates buffered in
	// writer slots); a snapshot pull drains the table, so everything
	// ingested above is visible and the assertions below are exact.
	if _, err := c.PullSnapshot("ev"); err != nil {
		t.Fatal(err)
	}

	kind, blob, found, err := c.QueryCompact("ev", "a")
	if err != nil || !found {
		t.Fatalf("query a: found=%v err=%v", found, err)
	}
	if kind != 1 {
		t.Fatalf("query kind = %d, want KindTheta", kind)
	}
	ca, err := theta.UnmarshalCompact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := ca.Estimate(); got != 102 { // 50 batches × 2 items + 2 string items
		t.Fatalf("key a estimate = %v, want 102", got)
	}
	if _, _, found, err := c.QueryCompact("ev", "nope"); err != nil || found {
		t.Fatalf("missing key: found=%v err=%v", found, err)
	}

	kind, blob, err = c.Rollup("ev")
	if err != nil || kind != 1 {
		t.Fatalf("rollup: kind=%d err=%v", kind, err)
	}
	ru, err := theta.UnmarshalCompact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := ru.Estimate(); got != 302 { // 300 distinct uint64 items + 2 strings
		t.Fatalf("rollup estimate = %v, want 302", got)
	}

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Tables != 1 || h.Keys != 3 || h.Items != 302 || h.Errors != 0 {
		t.Fatalf("health = %+v", h)
	}

	// The in-process snapshot hook (the fcds-serve push path) returns
	// the same drained, merged image as a wire pull — including after
	// Close, which is when the final shutdown push runs.
	checkSnap := func(when string) {
		blob, err := s.SnapshotTable("ev")
		if err != nil {
			t.Fatalf("SnapshotTable %s: %v", when, err)
		}
		snap, err := table.UnmarshalThetaSnapshot[string](blob)
		if err != nil {
			t.Fatalf("SnapshotTable %s: parse: %v", when, err)
		}
		if snap.Len() != 3 {
			t.Fatalf("SnapshotTable %s: %d keys, want 3", when, snap.Len())
		}
		ca, ok := snap.Get("a")
		if !ok || ca.Estimate() != 102 {
			t.Fatalf("SnapshotTable %s: key a = %v (ok=%v), want 102", when, ca, ok)
		}
	}
	checkSnap("live")
	if _, err := s.SnapshotTable("missing"); err == nil {
		t.Fatal("SnapshotTable on unknown table succeeded")
	}
	c.Close()
	s.Close()
	checkSnap("after Close")
}

// TestServerErrors pins the per-request error paths: unknown table,
// key-type mismatch, unsupported family operation — all as typed
// server errors on a connection that stays usable.
func TestServerErrors(t *testing.T) {
	tab := newThetaTable(t, 1)
	qt := table.NewQuantiles(table.QuantilesConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 16},
	})
	t.Cleanup(qt.Close)

	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	if err := server.Register(s, "lat", qt.Table); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration fails.
	if err := server.Register(s, "ev", tab.Table); err == nil {
		t.Fatal("duplicate register succeeded")
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	expectCode := func(err error, code uint64, what string) {
		t.Helper()
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != code {
			t.Fatalf("%s: err=%v, want server code %d", what, err, code)
		}
	}

	_, _, err = c.Rollup("missing")
	expectCode(err, wire.ErrCodeUnknownTable, "unknown table")

	// uint64 keys into a string-keyed table.
	if err := c.IngestU64("ev", []uint64{1}, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	expectCode(c.Flush(), wire.ErrCodeBadPayload, "key type mismatch")

	// String items into a quantiles table.
	if err := c.IngestStrings("lat", []string{"k"}, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	expectCode(c.Flush(), wire.ErrCodeUnsupported, "string items on quantiles")

	// The connection survives request errors.
	if err := c.Ingest("ev", []string{"k"}, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("post-error ingest: %v", err)
	}
	if _, _, found, err := c.QueryCompact("ev", "k"); err != nil || !found {
		t.Fatalf("post-error query: found=%v err=%v", found, err)
	}

	// Errors were counted.
	if st := s.Stats(); st.Errors != 3 {
		t.Fatalf("stats errors = %d, want 3", st.Errors)
	}
}

// TestServerQuantiles covers the float-value wire path end to end.
func TestServerQuantiles(t *testing.T) {
	qt := table.NewQuantiles(table.QuantilesConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 16},
		K:     128,
	})
	t.Cleanup(qt.Close)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "lat", qt.Table); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 500)
	vals := make([]float64, 500)
	for i := range keys {
		keys[i] = "api"
		vals[i] = float64(i)
	}
	if err := c.IngestFloat("lat", keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PullSnapshot("lat"); err != nil { // drain: exact N below
		t.Fatal(err)
	}
	_, blob, found, err := c.QueryCompact("lat", "api")
	if err != nil || !found {
		t.Fatalf("query: found=%v err=%v", found, err)
	}
	sk, err := qt.Engine().UnmarshalCompact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.Snapshot().N(); got != 500 {
		t.Fatalf("sample count over the wire = %d, want 500", got)
	}
}

// TestServerRejectsGarbage pins the fatal paths: a first frame that is
// not HELLO, and a frame version the server never negotiated.
func TestServerRejectsGarbage(t *testing.T) {
	s, addr := startServer(t, server.Config{})
	_ = s

	// Not-HELLO first frame: server answers ERR and closes.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.Version, wire.FrameHealth, nil); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(nc, 0, 0)
	_, typ, _, payload, err := fr.Next()
	if err != nil || typ != wire.FrameErr {
		t.Fatalf("first response: typ=%#x err=%v", typ, err)
	}
	code, _, err := wire.ParseErrPayload(payload)
	if err != nil || code != wire.ErrCodeBadFrame {
		t.Fatalf("error code = %d (%v), want ErrCodeBadFrame", code, err)
	}
	if _, _, _, _, err := fr.Next(); err == nil {
		t.Fatal("connection stayed open after fatal error")
	}

	// Wrong version after negotiation.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	if err := wire.WriteFrame(nc2, wire.Version, wire.FrameHello, []byte{wire.Version}); err != nil {
		t.Fatal(err)
	}
	fr2 := wire.NewFrameReader(nc2, 0, 0)
	if _, typ, _, _, err = fr2.Next(); err != nil || typ != wire.FrameHello {
		t.Fatalf("hello response: typ=%#x err=%v", typ, err)
	}
	if err := wire.WriteFrame(nc2, 99, wire.FrameHealth, nil); err != nil {
		t.Fatal(err)
	}
	_, typ, _, payload, err = fr2.Next()
	if err != nil || typ != wire.FrameErr {
		t.Fatalf("version-mismatch response: typ=%#x err=%v", typ, err)
	}
	if code, _, _ := wire.ParseErrPayload(payload); code != wire.ErrCodeVersion {
		t.Fatalf("error code = %d, want ErrCodeVersion", code)
	}
}

// TestServerSurvivesHugeBatchCount pins the count-overflow guard: a
// KEYED_BATCH claiming >= 2^63 entries used to convert to a negative
// int, bypass the payload bound and panic the whole process slicing
// the scratch. It must instead earn an ERR frame on a connection (and
// server) that keeps working.
func TestServerSurvivesHugeBatchCount(t *testing.T) {
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
	fr := wire.NewFrameReader(nc, 0, 0)
	if _, typ, _, _, err := fr.Next(); err != nil || typ != wire.FrameHello {
		t.Fatalf("hello: typ=%#x err=%v", typ, err)
	}

	payload := wire.AppendString(nil, "ev")
	payload = append(payload, wire.KeyTypeString)
	payload = wire.AppendUvarint(payload, 1<<63) // negative as int
	if err := wire.WriteFrame(nc, wire.Version, wire.FrameKeyedBatch, payload); err != nil {
		t.Fatal(err)
	}
	_, typ, _, resp, err := fr.Next()
	if err != nil || typ != wire.FrameErr {
		t.Fatalf("huge-count response: typ=%#x err=%v", typ, err)
	}
	if code, _, _ := wire.ParseErrPayload(resp); code != wire.ErrCodeBadPayload {
		t.Fatalf("error code = %d, want ErrCodeBadPayload", code)
	}

	// The connection and the server survived.
	if err := wire.WriteFrame(nc, wire.Version, wire.FrameHealth, nil); err != nil {
		t.Fatal(err)
	}
	if _, typ, _, _, err := fr.Next(); err != nil || typ != wire.FrameValue {
		t.Fatalf("post-error health: typ=%#x err=%v", typ, err)
	}
}

// TestSnapshotPushSourceReplace pins the per-source replace contract:
// a node re-shipping its full cumulative snapshot under one source id
// counts once no matter how many times it ships (the -push loop),
// anonymous pushes keep merge semantics, and distinct sources
// aggregate.
func TestSnapshotPushSourceReplace(t *testing.T) {
	const n = 500
	newQT := func() *table.QuantilesTable[string] {
		qt := table.NewQuantiles(table.QuantilesConfig[string]{
			Table: table.Config[string]{Writers: 1, Shards: 16},
			K:     128,
		})
		t.Cleanup(qt.Close)
		return qt
	}
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "lat", newQT().Table); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Build a snapshot blob with n samples under one key.
	src := newQT()
	w := src.Writer(0)
	keys := make([]string, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i], vals[i] = "api", float64(i)
	}
	w.UpdateKeyedBatch(keys, vals)
	src.Drain()
	blob, err := src.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	sampleCount := func(what string) uint64 {
		t.Helper()
		_, qblob, found, err := c.QueryCompact("lat", "api")
		if err != nil || !found {
			t.Fatalf("%s: query: found=%v err=%v", what, found, err)
		}
		sk, err := quantiles.Unmarshal(qblob)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return sk.Snapshot().N()
	}

	// Cumulative re-ships from one source replace: still n after three.
	for i := 0; i < 3; i++ {
		if err := c.PushSnapshotFrom("lat", "edge-1", blob); err != nil {
			t.Fatal(err)
		}
	}
	if got := sampleCount("same source"); got != n {
		t.Fatalf("after 3 pushes from one source: n = %d, want %d", got, n)
	}

	// A second source aggregates with the first.
	if err := c.PushSnapshotFrom("lat", "edge-2", blob); err != nil {
		t.Fatal(err)
	}
	if got := sampleCount("second source"); got != 2*n {
		t.Fatalf("two sources: n = %d, want %d", got, 2*n)
	}

	// Anonymous pushes merge — each one counts.
	for i := 0; i < 2; i++ {
		if err := c.PushSnapshot("lat", blob); err != nil {
			t.Fatal(err)
		}
	}
	if got := sampleCount("anonymous"); got != 4*n {
		t.Fatalf("after 2 anonymous pushes: n = %d, want %d", got, 4*n)
	}

	// The pulled (and shipped-downstream) snapshot folds all of it.
	pulled, err := c.PullSnapshot("lat")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := table.UnmarshalQuantilesSnapshot[string](pulled)
	if err != nil {
		t.Fatal(err)
	}
	sk, ok := snap.Get("api")
	if !ok {
		t.Fatal("pulled snapshot: key api missing")
	}
	if got := sk.Snapshot().N(); got != 4*n {
		t.Fatalf("pulled snapshot: n = %d, want %d", got, 4*n)
	}
}

// TestSnapshotPushSourceCapFolds pins the named-source bound: pushing
// from more distinct sources than maxSnapshotSources (1024) must keep
// succeeding — the oldest sources fold into the shared aggregate — and
// no shipped data may be lost on the way.
func TestSnapshotPushSourceCapFolds(t *testing.T) {
	tab := newThetaTable(t, 1)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Each source ships the cumulative snapshot of one growing table —
	// Θ merges are idempotent, so folds and replaces both preserve the
	// full item set and the final rollup pins losslessness exactly.
	src := newThetaTable(t, 1)
	w := src.Writer(0)
	const sources = 1030 // past the 1024 cap
	for i := 0; i < sources; i++ {
		w.UpdateKeyedBatch([]string{"k"}, []uint64{uint64(i)})
		src.Drain()
		blob, err := src.Snapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PushSnapshotFrom("ev", fmt.Sprintf("src-%04d", i), blob); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	_, rblob, err := c.Rollup("ev")
	if err != nil {
		t.Fatal(err)
	}
	ru, err := theta.UnmarshalCompact(rblob)
	if err != nil {
		t.Fatal(err)
	}
	if got := ru.Estimate(); got != sources {
		t.Fatalf("rollup estimate = %v, want %d (data lost across the cap fold)", got, sources)
	}
}

// TestSnapshotPushSeedMismatchRejected pins the pre-merge seed check:
// a Θ snapshot hashed under a foreign seed must be rejected at push
// time with a payload error — not ACKed and stored where it would
// poison every later query, rollup and pull.
func TestSnapshotPushSeedMismatchRejected(t *testing.T) {
	tab := newThetaTable(t, 1) // default seed
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	foreign := table.NewTheta(table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 16},
		K:     2048, MaxError: 1, Seed: 0xfeedbeef,
	})
	t.Cleanup(foreign.Close)
	foreign.Writer(0).UpdateKeyedBatch([]string{"a", "a"}, []uint64{1, 2})
	foreign.Drain()
	blob, err := foreign.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var se *client.ServerError
	for _, source := range []string{"", "edge-1"} { // merge and replace paths
		err := c.PushSnapshotFrom("ev", source, blob)
		if !errors.As(err, &se) || se.Code != wire.ErrCodeBadPayload {
			t.Fatalf("push (source %q): err=%v, want ErrCodeBadPayload", source, err)
		}
	}

	// Nothing was stored: ingest + rollup still work over the wire.
	if err := c.Ingest("ev", []string{"a"}, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PullSnapshot("ev"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Rollup("ev"); err != nil {
		t.Fatalf("rollup after rejected push: %v", err)
	}
}

// TestClientDownshift pins negotiation: a client offering a version
// beyond the server's settles on the server's.
func TestClientDownshift(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, 7, wire.FrameHello, []byte{7}); err != nil {
		t.Fatal(err)
	}
	_, typ, _, payload, err := wire.NewFrameReader(nc, 0, 0).Next()
	if err != nil || typ != wire.FrameHello || len(payload) != 1 || payload[0] != wire.Version {
		t.Fatalf("downshift: typ=%#x payload=% x err=%v", typ, payload, err)
	}
}

// helloRaw opens a raw socket, sends a HELLO with the given payload and
// returns the socket, its frame reader and the server's reply payload
// (valid until the reader's next frame).
func helloRaw(t *testing.T, addr string, offer []byte) (net.Conn, *wire.FrameReader, []byte) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := wire.WriteFrame(nc, wire.Version, wire.FrameHello, offer); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(nc, 0, 0)
	_, typ, _, payload, err := fr.Next()
	if err != nil || typ != wire.FrameHello {
		t.Fatalf("hello % x: typ=%#x err=%v", offer, typ, err)
	}
	return nc, fr, payload
}

// TestCompressionDisabledServer pins wire interop with clients that
// offer the retired deflate feature (bit 0 of a second HELLO byte): the
// reply keeps their two-byte shape with a feature byte of 0, and plain
// frames then work.
func TestCompressionDisabledServer(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	nc, fr, reply := helloRaw(t, addr, []byte{wire.Version, 1})
	if len(reply) != 2 || reply[0] != wire.Version || reply[1] != 0 {
		t.Fatalf("two-byte hello: reply % x, want %02x 00", reply, wire.Version)
	}
	if err := wire.WriteFrame(nc, wire.Version, wire.FrameHealth, nil); err != nil {
		t.Fatal(err)
	}
	if _, typ, _, _, err := fr.Next(); err != nil || typ != wire.FrameValue {
		t.Fatalf("plain frame after two-byte hello: typ=%#x err=%v", typ, err)
	}
}

// TestCompressedFlagWithoutNegotiation checks that a one-byte HELLO
// gets a one-byte reply and that a frame with flag bit 0 (the retired
// compressed flag) set is then a fatal framing error.
func TestCompressedFlagWithoutNegotiation(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	nc, fr, reply := helloRaw(t, addr, []byte{wire.Version})
	if len(reply) != 1 || reply[0] != wire.Version {
		t.Fatalf("one-byte hello: reply % x, want %02x", reply, wire.Version)
	}
	frame := make([]byte, wire.HeaderSize)
	wire.PutHeader(frame, wire.Version, wire.FrameHealth, 1, 0)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	_, typ, _, resp, err := fr.Next()
	if err != nil || typ != wire.FrameErr {
		t.Fatalf("flagged frame: typ=%#x err=%v", typ, err)
	}
	if code, _, _ := wire.ParseErrPayload(resp); code != wire.ErrCodeBadFrame {
		t.Fatalf("error code = %d, want ErrCodeBadFrame", code)
	}
	// Fatal: the server hangs up after a framing error.
	if _, _, _, _, err := fr.Next(); err == nil {
		t.Fatal("connection still open after framing error")
	}
}

// TestWireStringKeysAcrossConnections: four connections ingest string
// keys at once, as KEYED_BATCH and KEYED_STRING_BATCH frames of 300
// pairs, into a table whose key cap evicts and re-creates keys all the
// time. The server stages each key as a view of its connection's read
// buffer, which the next frame overwrites; a view the table kept past
// its frame would surface as a key no client sent, or, under -race, as
// a read of a buffer another goroutine is filling.
func TestWireStringKeysAcrossConnections(t *testing.T) {
	const clients, frames, pairs, nkeys = 4, 200, 300, 200
	tab := table.NewTheta(table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 2, Shards: 8, MaxKeys: 32},
	})
	defer tab.Close()
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, nkeys)
	for i := range nkeys {
		names[fmt.Sprintf("wire-key-%03d", i)] = true
	}
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci)))
			keys, vals, items := make([]string, pairs), make([]uint64, pairs), make([]string, pairs)
			for f := range frames {
				for j := range keys {
					keys[j] = fmt.Sprintf("wire-key-%03d", rng.Intn(nkeys))
					vals[j] = rng.Uint64()
					items[j] = strconv.FormatUint(vals[j], 36)
				}
				if f%2 == 0 {
					err = c.Ingest("ev", keys, vals)
				} else {
					err = c.IngestStrings("ev", keys, items)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Flush(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	tab.Drain()
	tab.Snapshot().ForEach(func(k string, _ *theta.Compact) {
		if !names[k] {
			t.Errorf("the table holds key %q, which no client sent", k)
		}
	})
	if st := tab.Stats(); st.EvictionsCap == 0 {
		t.Fatalf("no key was evicted: the test needs keys re-created")
	}
}
