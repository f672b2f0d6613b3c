package server

import (
	"fmt"
	"testing"

	"github.com/fcds/fcds/internal/hash"
	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/table"
)

// TestIngestFrameAllDroppedAndReset: once a key is far above K the
// table writer drops most of a frame's items before they are grouped. A
// frame whose items are all dropped is still ingested — committed,
// counted and acknowledged with its full item count — and a frame that
// fails to decode after some of its items were staged (and dropped) is
// discarded whole: nothing of it is counted, and the handle's next
// frame is unaffected.
func TestIngestFrameAllDroppedAndReset(t *testing.T) {
	cfg := table.ThetaConfig[uint64]{Table: table.Config[uint64]{Writers: 1, Shards: 4}, K: 64}
	_, eng := cfg.Engine()
	tab := table.NewTheta(cfg)
	defer tab.Close()
	s := New(Config{})
	if err := Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	b, ok := s.lookup("ev")
	if !ok {
		t.Fatal("table not registered")
	}
	const key, batch = uint64(42), 512
	frame := func(vals []uint64) []byte {
		p := wire.AppendUvarint([]byte{wire.KeyTypeUint64}, uint64(len(vals)))
		for range vals {
			p = wire.AppendUint64(p, key)
		}
		for _, v := range vals {
			p = wire.AppendUint64(p, v)
		}
		return p
	}
	ingest := func(p []byte) (int, error) {
		r := wire.Reader{Buf: p}
		return b.ingest(&r, false)
	}
	vals := make([]uint64, batch)
	next := uint64(0)
	for i := 0; i < 40; i++ { // 20 480 distinct items: Θ ≈ K/n, far below 1/2
		for j := range vals {
			vals[j] = next
			next++
		}
		if n, err := ingest(frame(vals)); err != nil || n != batch {
			t.Fatalf("warm-up frame: n=%d err=%v", n, err)
		}
	}
	// Items whose Θ-space hash is in the upper half: all dropped.
	dead := vals[:0]
	for v := uint64(1) << 48; len(dead) < batch; v++ {
		if tab.Engine().HashValue(v) >= hash.MaxThetaValue/2 {
			dead = append(dead, v)
		}
	}
	st0 := tab.Stats()
	if n, err := ingest(frame(dead)); err != nil || n != batch {
		t.Fatalf("all-dropped frame: acknowledged %d items (err=%v), want %d", n, err, batch)
	}
	st1 := tab.Stats()
	if d := st1.Prefiltered - st0.Prefiltered; d != batch {
		t.Fatalf("%d of %d items dropped; the test needs all of them filtered", d, batch)
	}
	if st1.CacheHits != st0.CacheHits+1 {
		t.Fatalf("all-dropped frame resolved its key %d times through the cache, want once", st1.CacheHits-st0.CacheHits)
	}

	// A string-item frame with a trailing byte: its items have no fixed
	// stride, so every pair is staged (and, hashing high, dropped) before
	// the decoder reaches the end and finds the body too long.
	p := wire.AppendUvarint([]byte{wire.KeyTypeUint64}, batch)
	for i := 0; i < batch; i++ {
		p = wire.AppendUint64(p, key)
	}
	for i, n := 0, 0; n < batch; i++ {
		if it := fmt.Sprintf("item-%d", i); eng.HashString(it) >= hash.MaxThetaValue/2 {
			p = wire.AppendString(p, it)
			n++
		}
	}
	r := wire.Reader{Buf: p}
	if n, err := b.ingest(&r, true); err != nil || n != batch {
		t.Fatalf("string-item frame: n=%d err=%v", n, err)
	}
	if d := tab.Stats().Prefiltered - st1.Prefiltered; d != batch {
		t.Fatalf("string-item frame: %d of %d items dropped; the test needs all of them filtered", d, batch)
	}
	st1 = tab.Stats()
	r = wire.Reader{Buf: append(p, 0xff)}
	if n, err := b.ingest(&r, true); err == nil {
		t.Fatalf("malformed frame ingested %d items", n)
	}
	if st := tab.Stats(); st != st1 {
		t.Fatalf("a rejected frame left marks: %+v → %+v", st1, st)
	}
	if n, err := ingest(frame(dead)); err != nil || n != batch {
		t.Fatalf("frame after a rejected one: n=%d err=%v", n, err)
	}
	if d := tab.Stats().Prefiltered - st1.Prefiltered; d != batch {
		t.Fatalf("frame after a rejected one dropped %d items, want %d", d, batch)
	}
}
