package window

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/table"
)

// TestWindowTableExpiredEpochExcluded: per-key window queries cover
// exactly the last Slots epochs (the active epoch and the sealed ones).
func TestWindowTableExpiredEpochExcluded(t *testing.T) {
	tcfg, eng := table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 8},
		K:     1024, MaxError: 1,
	}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: 4, Width: time.Hour})
	defer wt.Close()
	w := wt.Writer(0)

	keys := make([]string, 100)
	vals := make([]uint64, 100)
	for i := range keys {
		keys[i] = "tenant-a"
		vals[i] = uint64(i)
	}
	w.UpdateKeyedBatch(keys, vals) // epoch 0: 100 uniques for tenant-a
	wt.Drain()
	if got, ok := wt.QueryWindow("tenant-a"); !ok || got != 100 {
		t.Fatalf("epoch-0 window query = %v (ok=%v), want 100", got, ok)
	}

	// Epochs 1..3: 10 fresh uniques each. tenant-a's epoch-0 items stay
	// in the window through epoch 3 (slots=4).
	for e := 1; e <= 3; e++ {
		wt.Rotate()
		for i := 0; i < 10; i++ {
			w.UpdateKeyed("tenant-a", uint64(1000*e+i))
		}
		wt.Drain()
		want := float64(100 + 10*e)
		if got, ok := wt.QueryWindow("tenant-a"); !ok || got != want {
			t.Fatalf("epoch %d window query = %v (ok=%v), want %v", e, got, ok, want)
		}
	}

	// Epoch 4: epoch 0 falls off the ring.
	wt.Rotate()
	wt.Drain()
	if got, ok := wt.QueryWindow("tenant-a"); !ok || got != 30 {
		t.Fatalf("post-expiry window query = %v (ok=%v), want 30 (epoch 0 excluded)", got, ok)
	}
	if wt.Epoch() != 4 {
		t.Fatalf("epoch = %d, want 4", wt.Epoch())
	}
}

// TestWindowTableKeyDisappears: a key seen only in one epoch stops
// resolving once that epoch expires.
func TestWindowTableKeyDisappears(t *testing.T) {
	tcfg, eng := table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 8},
		K:     256, MaxError: 1,
	}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: 2, Width: time.Hour})
	defer wt.Close()
	w := wt.Writer(0)
	w.UpdateKeyed("ephemeral", 1)
	w.FlushKey("ephemeral")
	if _, ok := wt.QueryWindow("ephemeral"); !ok {
		t.Fatal("key missing while its epoch is active")
	}
	wt.Rotate() // key's epoch is sealed: still in the window
	if _, ok := wt.QueryWindow("ephemeral"); !ok {
		t.Fatal("key missing while its epoch is draining")
	}
	wt.Rotate() // slots=2: epoch 0 expired
	if got, ok := wt.QueryWindow("ephemeral"); ok {
		t.Fatalf("expired key still resolves: %v", got)
	}
}

// TestWindowTableSealedSnapshotPath: with slots > 2, data several
// epochs old is served from each key's sealed epochs, and the whole
// window round-trips through WindowSnapshot.
func TestWindowTableSealedSnapshotPath(t *testing.T) {
	tcfg, eng := table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 8},
		K:     1024, MaxError: 1,
	}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: 5, Width: time.Hour})
	defer wt.Close()
	w := wt.Writer(0)

	for e := 0; e < 4; e++ {
		keys := make([]string, 50)
		vals := make([]uint64, 50)
		for i := range keys {
			keys[i] = fmt.Sprintf("tenant-%d", e%2)
			vals[i] = uint64(10_000*e + i)
		}
		w.UpdateKeyedBatch(keys, vals)
		wt.Drain()
		wt.Rotate()
	}
	// Epochs 0-3 are sealed now; epoch 4 is active and empty.
	if got, ok := wt.QueryWindow("tenant-0"); !ok || got != 100 {
		t.Fatalf("tenant-0 (epochs 0+2, sealed+sealed) = %v (ok=%v), want 100", got, ok)
	}
	if got, ok := wt.QueryWindow("tenant-1"); !ok || got != 100 {
		t.Fatalf("tenant-1 (epochs 1+3, sealed+draining) = %v (ok=%v), want 100", got, ok)
	}

	// Whole-window snapshot round trip through the table wire format.
	snap, err := wt.WindowSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := table.UnmarshalThetaSnapshot[string](data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("window snapshot keys = %d, want 2", back.Len())
	}
	if c, ok := back.Get("tenant-0"); !ok || c.Estimate() != 100 {
		t.Fatalf("round-tripped tenant-0 = %v (ok=%v), want 100", c, ok)
	}

	// Window rollup: 200 distinct values across both tenants.
	if got := eng.QueryCompact(wt.RollupWindow()); got != 200 {
		t.Fatalf("window rollup = %v, want 200", got)
	}
}

// TestWindowTableConcurrent races keyed writers against rotations and
// window queries (run with -race).
func TestWindowTableConcurrent(t *testing.T) {
	const writers = 4
	tcfg, eng := table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: writers, Shards: 64},
	}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: 3, Width: time.Hour})
	defer wt.Close()
	// With Slots: 3 what an epoch holds is gone three rotations later, so
	// writers that finished early would leave a window that is correctly
	// empty. Each writer therefore keeps ingesting through all six
	// rotations and ends with one batch begun after the last of them.
	var rotated atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := wt.Writer(wi)
			keys := make([]uint64, 64)
			vals := make([]uint64, 64)
			for n, last := 0, false; !last; n++ {
				last = n >= 199 && rotated.Load()
				for j := range keys {
					keys[j] = uint64(j % 16)
					vals[j] = uint64(wi)<<32 | uint64(n*64+j)
				}
				w.UpdateKeyedBatch(keys, vals)
			}
		}(wi)
	}
	rotations := 0
	for ; rotations < 6; rotations++ {
		wt.Rotate()
		for k := uint64(0); k < 16; k++ {
			_, _ = wt.QueryWindow(k)
		}
		_ = wt.RollupWindow()
	}
	rotated.Store(true)
	wg.Wait()
	wt.Drain()
	if _, ok := wt.QueryWindow(0); !ok {
		t.Fatal("key 0 missing after concurrent run")
	}
	if wt.Epoch() != int64(rotations) {
		t.Fatalf("epoch = %d, want %d", wt.Epoch(), rotations)
	}
}

// TestWindowTableFlatKeysAcrossRotation: with the eager phase on, a
// key that never reaches the eager limit is flat in every epoch it
// appears in — no pool attachment, every update visible on return
// without a Drain — and still travels the whole ring: active, sealed,
// expired. Its window compact is byte-identical to that
// of a table that buffered the same items.
func TestWindowTableFlatKeysAcrossRotation(t *testing.T) {
	cfg := table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: 1, Shards: 8},
		K:     1024, MaxError: 0.1, // eager limit 2/e² = 200
	}
	tcfg, eng := cfg.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: 3, Width: time.Hour})
	defer wt.Close()
	cfg.MaxError = 1 // the same table without an eager phase
	rcfg, reng := cfg.Engine()
	ref := NewTable(rcfg, reng, Config{Slots: 3, Width: time.Hour})
	defer ref.Close()
	w, rw := wt.Writer(0), ref.Writer(0)

	const key, perEpoch = uint64(7), 30
	for e := 0; e < 5; e++ {
		if e > 0 {
			wt.Rotate()
			ref.Rotate()
		}
		for i := 0; i < perEpoch; i++ {
			w.UpdateKeyed(key, uint64(1000*e+i))
			rw.UpdateKeyed(key, uint64(1000*e+i))
		}
		want := float64(perEpoch * min(e+1, 3)) // slots = 3
		if got, ok := wt.QueryWindow(key); !ok || got != want {
			t.Fatalf("epoch %d: window query without Drain = %v (ok=%v), want %v", e, got, ok, want)
		}
		if n := wt.Pool().Sketches(); n != 0 {
			t.Fatalf("epoch %d: pool serves %d sketches; the key should be flat in every epoch", e, n)
		}
		ref.Drain()
		got, _ := wt.CompactWindowKey(key)
		wantC, _ := ref.CompactWindowKey(key)
		gb, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := wantC.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("epoch %d: window compact of the flat key differs from the buffered table's", e)
		}
	}
}

// TestWindowTableParamFitsSnapshot: a keyed window refuses, at
// construction, a parameter its table's snapshots could not carry,
// exactly as the table does.
func TestWindowTableParamFitsSnapshot(t *testing.T) {
	for name, fn := range map[string]func(){
		"quantiles K 2^16": func() {
			tcfg, eng := table.QuantilesConfig[string]{K: 1 << 16}.Engine()
			NewTable(tcfg, eng, Config{Slots: 2}).Close()
		},
		"theta K 2^27": func() {
			tcfg, eng := table.ThetaConfig[uint64]{K: 1 << 27}.Engine()
			NewTable(tcfg, eng, Config{Slots: 2}).Close()
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected construction-time panic", name)
				}
			}()
			fn()
		}()
	}
}
