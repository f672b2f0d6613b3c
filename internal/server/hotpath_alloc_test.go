package server

import (
	"testing"

	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/table"
)

// TestServeHotpathZeroAllocs pins the server's zero-copy ingest path at
// 0 allocs per frame: handle checkout, the streaming decode straight
// into the writer's grouping scratch (no intermediate key/value slices,
// no interface boxing per key), and the batch commit. It mirrors the
// table-side pin (internal/table's TestKeyedBatchInstrumentedZeroAllocs)
// one layer up: buffer sized so runs never hand off to the propagator
// pool, uint64 keys (string keys are copied on first sight by design —
// the table retains them).
func TestServeHotpathZeroAllocs(t *testing.T) {
	tab := table.NewTheta(table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: 1, Shards: 8},
		K:     256, MaxError: 1, BufferSize: 1 << 14,
	})
	defer tab.Close()
	s := New(Config{})
	if err := Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	b, ok := s.lookup("ev")
	if !ok {
		t.Fatal("table not registered")
	}

	// One KEYED_BATCH payload body (the bytes after the table name),
	// exactly as a frame delivers it: key type, count, key run, value
	// run. 8 distinct keys so the writer cache stays warm.
	const batch = 512
	payload := []byte{wire.KeyTypeUint64}
	payload = wire.AppendUvarint(payload, batch)
	for i := 0; i < batch; i++ {
		payload = wire.AppendUint64(payload, uint64(i%8))
	}
	x := uint64(1)
	for i := 0; i < batch; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		payload = wire.AppendUint64(payload, x)
	}

	// The cursor lives outside the loop exactly like a connection's
	// reused connState cursor — the pointer handed through the backend
	// interface escapes once, not per frame.
	var r wire.Reader
	ingest := func() {
		r = wire.Reader{Buf: payload}
		if n, err := b.ingest(&r, false); err != nil || n != batch {
			t.Fatalf("ingest: n=%d err=%v", n, err)
		}
	}
	// Warm up: create the key sketches and fill the writer cache.
	for i := 0; i < 8; i++ {
		ingest()
	}
	if avg := testing.AllocsPerRun(50, ingest); avg != 0 {
		t.Errorf("server ingest allocates %.1f allocs/op, want 0", avg)
	}
}
