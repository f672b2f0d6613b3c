package server

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// These tests pin what the anonymous aggregate keeps of a pushed image.
// A Θ image decodes into one slab, so a compact the aggregate adopts
// unchanged would keep its whole image alive: after n pushes that each
// bring one new key, n images instead of n compacts.

const (
	retainKeys   = 2000 // keys per image
	retainPushes = 200  // images pushed after the first, one new key each
)

// retainBackend is a server with one Θ table, K = 16 so that a merge
// stays cheap, and the compact of each of retainKeys + retainPushes keys
// (4 items each, so 4 samples).
func retainBackend(t *testing.T) (*tableBackend[string, uint64, float64, *theta.Compact], []*theta.Compact) {
	t.Helper()
	tab := table.NewTheta(table.ThetaConfig[string]{Table: table.Config[string]{Writers: 1, Shards: 16}, K: 16})
	t.Cleanup(tab.Close)
	s := New(Config{})
	if err := Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	src := table.NewTheta(table.ThetaConfig[string]{Table: table.Config[string]{Writers: 1, Shards: 16}, K: 16})
	defer src.Close()
	n := retainKeys + retainPushes
	keys, vals := make([]string, 0, 4*n), make([]uint64, 0, 4*n)
	for k := range n {
		for j := range 4 {
			keys, vals = append(keys, retainKey(k)), append(vals, uint64(k<<8|j))
		}
	}
	src.Writer(0).UpdateKeyedBatch(keys, vals)
	src.Drain()
	snap := src.Snapshot()
	compacts := make([]*theta.Compact, n)
	for k := range n {
		c, ok := snap.Get(retainKey(k))
		if !ok || c.Retained() != 4 {
			t.Fatalf("key %d: no 4-sample compact", k)
		}
		compacts[k] = c
	}
	return lookupT(t, s, "ev").(*tableBackend[string, uint64, float64, *theta.Compact]), compacts
}

func retainKey(k int) string { return fmt.Sprintf("key-%04d", k) }

// retainImage is the FCTB image of push i: keys [0, retainKeys) for
// i = 0; for i > 0, keys [1, retainKeys) and key retainKeys−1+i, which
// no other image holds, so that nothing later merges into it.
func retainImage(t *testing.T, b *tableBackend[string, uint64, float64, *theta.Compact], compacts []*theta.Compact, i int) []byte {
	t.Helper()
	snap := table.NewTableSnapshot[string](b.eng)
	for k := min(i, 1); k < retainKeys; k++ {
		snap.Set(retainKey(k), compacts[k])
	}
	if i > 0 {
		snap.Set(retainKey(retainKeys-1+i), compacts[retainKeys-1+i])
	}
	img, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// checkRetention fails unless the heap grew by O(retainPushes
// compacts). The bound: 4 × retainPushes keys' share of one image
// (perImage/retainKeys each, perImage measured as what the first image
// cost), plus one image for the aggregate's map doubling, plus the keep
// whole images the state holds on purpose. An image kept per push
// would be retainPushes images, over 20 times the bound.
func checkRetention(t *testing.T, grew, perImage int64, keep int) {
	t.Helper()
	bound := 4*retainPushes*perImage/retainKeys + perImage + int64(keep)*perImage
	t.Logf("heap grew %d B over %d pushes (one image: %d B; bound %d B)", grew, retainPushes, perImage, bound)
	if grew > bound {
		t.Fatalf("heap grew %d B over %d pushes that each brought one new key, want at most %d (one image is %d B): the aggregate keeps the pushed images",
			grew, retainPushes, bound, perImage)
	}
}

// TestAnonymousMergeKeepsNoImage: 200 anonymous pushes into an
// aggregate of 2 000 keys, each a 2 000-key image with one new key,
// leave the live heap O(200 compacts) larger, not O(200 images).
func TestAnonymousMergeKeepsNoImage(t *testing.T) {
	b, compacts := retainBackend(t)
	push := func(i int) {
		if _, _, err := b.apply(JournalRecord{Type: jrecPush, Blob: retainImage(t, b, compacts, i)}); err != nil {
			t.Fatal(err)
		}
	}
	empty := liveHeap()
	push(0) // an empty aggregate takes its first image whole
	heap0 := liveHeap()
	for i := 1; i <= retainPushes; i++ {
		push(i)
	}
	grew := liveHeap() - heap0
	if got := b.remote.Len(); got != retainKeys+retainPushes {
		t.Fatalf("aggregate holds %d keys, want %d", got, retainKeys+retainPushes)
	}
	checkRetention(t, grew, heap0-empty, 0)
}

// TestDemotionFoldKeepsNoImage: past maxSnapshotSources (lowered to 4
// here), each new named source folds the oldest into the aggregate.
// With 200 sources whose images each bring the aggregate one new key,
// the live heap grows by the 4 images the named slots hold and O(200
// compacts), not O(200 images).
func TestDemotionFoldKeepsNoImage(t *testing.T) {
	const slots = 4
	defer func(n int) { maxSnapshotSources = n }(maxSnapshotSources)
	maxSnapshotSources = slots
	b, compacts := retainBackend(t)
	empty := liveHeap()
	if _, _, err := b.apply(JournalRecord{Type: jrecPush, Blob: retainImage(t, b, compacts, 0)}); err != nil {
		t.Fatal(err)
	}
	heap0 := liveHeap()
	for i := 1; i <= retainPushes; i++ {
		rec := JournalRecord{Type: jrecPush, Source: fmt.Sprintf("edge-%d", i), Blob: retainImage(t, b, compacts, i)}
		if _, _, err := b.apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	grew := liveHeap() - heap0
	if got, want := b.remote.Len(), retainKeys+retainPushes-slots; got != want || len(b.remotes) != slots {
		t.Fatalf("aggregate holds %d keys and %d named sources, want %d and %d", got, len(b.remotes), want, slots)
	}
	checkRetention(t, grew, heap0-empty, slots)
}
