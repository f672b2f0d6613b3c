package table

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/theta"
)

// TestThetaStringItemBatch: UpdateKeyedStringBatch must agree exactly
// with ingesting the same logical items through the uint64 path is not
// possible (different hash inputs), so the pin is internal consistency:
// string items are hashed once in the grouping pass, estimates are
// exact in exact mode, and duplicates collapse across batches and
// writers.
func TestThetaStringItemBatch(t *testing.T) {
	tab := NewTheta(ThetaConfig[string]{
		Table: Config[string]{Writers: 2, Shards: 8},
		K:     1024, MaxError: 1,
	})
	defer tab.Close()

	const perTenant = 200
	for wi := 0; wi < 2; wi++ {
		w := tab.Writer(wi)
		var keys, items []string
		for ti := 0; ti < 3; ti++ {
			for u := 0; u < perTenant; u++ {
				keys = append(keys, fmt.Sprintf("tenant-%d", ti))
				// Both writers send the same user ids: duplicates must
				// collapse per key.
				items = append(items, fmt.Sprintf("user-%d-%d", ti, u))
			}
		}
		w.UpdateKeyedStringBatch(keys, items)
	}
	tab.Drain()
	for ti := 0; ti < 3; ti++ {
		if est, ok := tab.Estimate(fmt.Sprintf("tenant-%d", ti)); !ok || est != perTenant {
			t.Errorf("tenant-%d = %v (ok=%v), want exactly %d", ti, est, ok, perTenant)
		}
	}
	// A repeated batch changes nothing (idempotent uniques).
	w := tab.Writer(0)
	keys := []string{"tenant-0", "tenant-0"}
	items := []string{"user-0-0", "user-0-1"}
	w.UpdateKeyedStringBatch(keys, items)
	tab.Drain()
	if est, _ := tab.Estimate("tenant-0"); est != perTenant {
		t.Errorf("tenant-0 after duplicate batch = %v, want %d", est, perTenant)
	}
}

// TestHLLStringItemBatch: the HLL string-item path agrees with the
// standalone concurrent HLL ingesting the same strings (same hash,
// same registers, same estimate).
func TestHLLStringItemBatch(t *testing.T) {
	tab := NewHLL(HLLConfig[string]{
		Table: Config[string]{Writers: 1, Shards: 8}, Precision: 12,
	})
	defer tab.Close()
	w := tab.Writer(0)
	const n = 5000
	keys := make([]string, n)
	items := make([]string, n)
	for i := range keys {
		keys[i] = "ids"
		items[i] = fmt.Sprintf("device-%d", i)
	}
	w.UpdateKeyedStringBatch(keys, items)
	tab.Drain()
	est, ok := tab.Estimate("ids")
	if !ok || est < n*0.9 || est > n*1.1 {
		t.Fatalf("hll string-item estimate = %v (ok=%v), want ~%d", est, ok, n)
	}
}

// TestStringItemBatchLengthMismatchPanics pins the contract check.
func TestStringItemBatchLengthMismatchPanics(t *testing.T) {
	tab := NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 4}})
	defer tab.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	tab.Writer(0).UpdateKeyedStringBatch([]string{"a"}, []string{"x", "y"})
}

// TestStringItemBatchZeroAlloc: steady-state string-item batches reuse
// all grouping and hashing scratch.
func TestStringItemBatchZeroAlloc(t *testing.T) {
	tab := NewTheta(ThetaConfig[string]{
		Table: Config[string]{Writers: 1, Shards: 8},
		K:     256, MaxError: 1, BufferSize: 64,
	})
	defer tab.Close()
	w := tab.Writer(0)
	const batch = 256
	keys := make([]string, batch)
	items := make([]string, batch)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i%4)
		items[i] = fmt.Sprintf("item-%d", i)
	}
	// Warm up: create the keys, size the scratch.
	for i := 0; i < 8; i++ {
		w.UpdateKeyedStringBatch(keys, items)
	}
	avg := testing.AllocsPerRun(50, func() {
		w.UpdateKeyedStringBatch(keys, items)
	})
	// The grouped apply path hands runs to per-key sketches whose
	// handoffs are pool-scheduled; allow a small constant for those,
	// but the per-item hashing and grouping must not allocate.
	if avg > 8 {
		t.Fatalf("steady-state string keyed batch allocates %.1f/op, want <= 8", avg)
	}
}

// TestBatchAddCopiesBorrowedKeys: string keys staged through BatchAddRun
// and BatchAddHashed may alias a buffer that their caller overwrites
// once the call returns, as a wire decoder's read buffer is. Keys repeat
// within and across 256-item blocks, some first seen by each entry
// point, and a key cap evicts and re-creates keys between rounds; the
// table must end with the keys and the image of one fed owned copies
// through UpdateKeyedBatch.
func TestBatchAddCopiesBorrowedKeys(t *testing.T) {
	const width, run1, run2 = 6, 300, 400
	// Each round's keys overflow the cap of 8, evicting the keys of the
	// round before that it does not name; the last round re-creates the
	// keys the second one evicted.
	rounds := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {4, 5, 6, 7, 8, 9, 10, 11}, {0, 1, 2, 3, 8, 9, 10, 11}}
	keyAt := func(set []int, i int) string {
		j := i % 5 // the first run names set[:5]
		if i >= run1 {
			j = i * 3 % len(set) // the second names all, set[5:] first
		}
		return fmt.Sprintf("key-%02d", set[j])
	}
	cfg := ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 1, MaxKeys: 8}, K: 16}
	got, want := NewTheta(cfg), NewTheta(cfg)
	defer got.Close()
	defer want.Close()
	var clock atomic.Int64
	got.now, want.now = clock.Load, clock.Load

	buf := make([]byte, (run1+run2)*width)
	views := make([]string, run1+run2)
	for i := range views {
		views[i] = unsafe.String(&buf[i*width], width)
	}
	rng := rand.New(rand.NewSource(48))
	gw, ww := got.Writer(0), want.Writer(0)
	for r, set := range rounds {
		clock.Store(int64(r + 1))
		owned, vals := make([]string, len(views)), make([]uint64, len(views))
		for i := range views {
			owned[i], vals[i] = keyAt(set, i), rng.Uint64()
			copy(buf[i*width:], owned[i])
		}
		ww.UpdateKeyedBatch(owned, vals)
		gw.BatchAddRun(views[:run1], vals[:run1])
		gw.BatchAddHashed(views[run1:], got.eng.AppendHashValues(nil, vals[run1:]))
		for i := range buf {
			buf[i] = 'x' // the buffer is reused before the batch commits
		}
		gw.BatchCommit()
	}
	if st := want.Stats(); st.EvictionsCap != 8 {
		t.Fatalf("the reference evicted %d keys, want 8: the rounds no longer re-create keys", st.EvictionsCap)
	}

	keysAndImage := func(tab *ThetaTable[string]) ([]string, []byte) {
		tab.Drain()
		var keys []string
		tab.Snapshot().ForEach(func(k string, _ *theta.Compact) { keys = append(keys, k) })
		slices.Sort(keys)
		b, err := tab.SnapshotBinary()
		if err != nil {
			t.Fatal(err)
		}
		// SnapshotBinary lists keys in walk order; its decoded snapshot
		// re-encodes them in key order.
		s, err := UnmarshalSnapshot[string](b, core.CompactCodec[*theta.Compact](tab.eng))
		if err != nil {
			t.Fatal(err)
		}
		if b, err = s.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		return keys, b
	}
	gotKeys, gotImg := keysAndImage(got)
	wantKeys, wantImg := keysAndImage(want)
	if !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("staged from a reused buffer, the table holds keys %q; fed owned copies, %q", gotKeys, wantKeys)
	}
	if !bytes.Equal(gotImg, wantImg) {
		t.Fatalf("staged from a reused buffer, the table's image differs from one fed owned copies (%d vs %d bytes)", len(gotImg), len(wantImg))
	}
}
