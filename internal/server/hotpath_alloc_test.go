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

// TestSnapshotPushAllocs bounds one named SNAPSHOT_PUSH of a 4-key Θ
// snapshot through handle at the 12 allocations it took when pushes,
// window ships and spills still had one method each: building the
// record and applying it, journaled or not, adds none.
func TestSnapshotPushAllocs(t *testing.T) {
	src := table.NewTheta(table.ThetaConfig[string]{Table: table.Config[string]{Writers: 1, Shards: 8}, K: 256, MaxError: 1})
	defer src.Close()
	w := src.Writer(0)
	for i := 0; i < 2000; i++ {
		w.UpdateKeyed([]string{"a", "b", "c", "d"}[i%4], uint64(i))
	}
	src.Drain()
	blob, err := src.SnapshotBinary()
	if err != nil {
		t.Fatal(err)
	}
	payload := wire.AppendString(nil, "ev")
	payload = wire.AppendString(payload, "edge-1")
	payload = append(payload, blob...)
	for _, journaled := range []bool{false, true} {
		tab := table.NewTheta(table.ThetaConfig[string]{Table: table.Config[string]{Writers: 1, Shards: 8}, K: 256, MaxError: 1})
		defer tab.Close()
		s := New(Config{})
		if err := Register(s, "ev", tab.Table); err != nil {
			t.Fatal(err)
		}
		if journaled {
			j, err := OpenJournal(t.TempDir(), JournalConfig{FsyncEvery: 1 << 30, MaxBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			s.AttachJournal(j)
		}
		cs := &connState{}
		push := func() {
			if typ, _, _, err := s.handle(cs, wire.FrameSnapshotPush, payload); err != nil || typ != wire.FrameOK {
				t.Fatalf("push: type %#x, err %v", typ, err)
			}
		}
		push()
		if avg := testing.AllocsPerRun(100, push); avg > 12 {
			t.Errorf("journaled=%v: a snapshot push allocates %.1f allocs/op, want at most 12", journaled, avg)
		}
	}
}
