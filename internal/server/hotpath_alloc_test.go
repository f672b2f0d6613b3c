package server

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/table"
)

// frameShapes are the four keyed-frame shapes decodeInto takes: uint64
// or string keys, with 8-byte values or string items.
var frameShapes = []struct {
	name        string
	kt          byte
	stringItems bool
}{
	{"uint64/raw", wire.KeyTypeUint64, false},
	{"uint64/strings", wire.KeyTypeUint64, true},
	{"string/raw", wire.KeyTypeString, false},
	{"string/strings", wire.KeyTypeString, true},
}

// shapeBackends registers a uint64- and a string-keyed Θ table with one
// writer, sized so runs rarely hand off to the propagator pool, and
// returns each one's backend by key type.
func shapeBackends(tb testing.TB) map[byte]backend {
	s := New(Config{})
	u := table.NewTheta(table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: 1, Shards: 8},
		K:     256, MaxError: 1, BufferSize: 1 << 14,
	})
	tb.Cleanup(u.Close)
	str := table.NewTheta(table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 8},
		K:     256, MaxError: 1, BufferSize: 1 << 14,
	})
	tb.Cleanup(str.Close)
	if err := Register(s, "u", u.Table); err != nil {
		tb.Fatal(err)
	}
	if err := Register(s, "s", str.Table); err != nil {
		tb.Fatal(err)
	}
	bu, _ := s.lookup("u")
	bs, _ := s.lookup("s")
	return map[byte]backend{wire.KeyTypeUint64: bu, wire.KeyTypeString: bs}
}

// shapePayload is one keyed-batch payload body (the bytes after the
// table name), exactly as a frame delivers it: key type, count, key run,
// item run. Its n pairs cycle through nkeys distinct keys; the items
// come from the xorshift stream that starts at seed (nonzero).
func shapePayload(kt byte, stringItems bool, n, nkeys int, seed uint64) []byte {
	payload := []byte{kt}
	payload = wire.AppendUvarint(payload, uint64(n))
	for i := 0; i < n; i++ {
		if kt == wire.KeyTypeUint64 {
			payload = wire.AppendUint64(payload, uint64(i%nkeys))
		} else {
			payload = wire.AppendString(payload, fmt.Sprintf("tenant-%d", i%nkeys))
		}
	}
	x := seed
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if stringItems {
			payload = wire.AppendString(payload, strconv.FormatUint(x, 36))
		} else {
			payload = wire.AppendUint64(payload, x)
		}
	}
	return payload
}

// TestServeHotpathZeroAllocs pins the server's zero-copy ingest path at
// 0 allocs per frame, for each of the four frame shapes: handle
// checkout, the streaming decode straight into the writer's grouping
// scratch (no intermediate key/value slices, no interface boxing per
// key), and the batch commit. It mirrors the table-side pin
// (internal/table's TestKeyedBatchInstrumentedZeroAllocs) one layer up:
// buffer sized so runs never hand off to the propagator pool, keys warm.
// A string key is staged as a view of the payload and copied only where
// the table starts to keep it, so a warm one is never copied.
func TestServeHotpathZeroAllocs(t *testing.T) {
	backends := shapeBackends(t)
	const batch = 512
	for _, sh := range frameShapes {
		t.Run(sh.name, func(t *testing.T) {
			b := backends[sh.kt]
			// 8 distinct keys so the writer cache stays warm.
			payload := shapePayload(sh.kt, sh.stringItems, batch, 8, 1)

			// The cursor lives outside the loop exactly like a connection's
			// reused connState cursor — the pointer handed through the backend
			// interface escapes once, not per frame.
			var r wire.Reader
			ingest := func() {
				r = wire.Reader{Buf: payload}
				if n, err := b.ingest(&r, sh.stringItems); err != nil || n != batch {
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
		})
	}
}

// BenchmarkKeyedBatchShapes prices one keyed frame of each shape through
// tableBackend.ingest — split, block decode, pass 1 and commit — on warm
// keys: a ring of 64 frames of 2 048 pairs over 64 keys, so each key
// sees 8·K distinct items and the writer's filter drops most, as on a
// hot table. It reports ns/item.
func BenchmarkKeyedBatchShapes(b *testing.B) {
	backends := shapeBackends(b)
	const batch, nkeys, ring = 2048, 64, 64
	for _, sh := range frameShapes {
		b.Run(sh.name, func(b *testing.B) {
			be := backends[sh.kt]
			payloads := make([][]byte, ring)
			for i := range payloads {
				payloads[i] = shapePayload(sh.kt, sh.stringItems, batch, nkeys, uint64(i+1))
			}
			var r wire.Reader
			ingest := func(i int) {
				r = wire.Reader{Buf: payloads[i%ring]}
				if n, err := be.ingest(&r, sh.stringItems); err != nil || n != batch {
					b.Fatalf("ingest: n=%d err=%v", n, err)
				}
			}
			for i := range 2 * ring {
				ingest(i)
			}
			b.ResetTimer()
			for i := range b.N {
				ingest(i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/item")
		})
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
