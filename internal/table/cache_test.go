package table

import (
	"sync"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/theta"
)

// TestEntryCacheEvictNoResurrect pins the entry-cache coherence rule:
// after a key is evicted, a writer whose cache still holds the dead
// entry must detect the shard's epoch bump, drop the slot and resolve
// through the map — never resurrecting (or updating) the evicted
// incarnation.
func TestEntryCacheEvictNoResurrect(t *testing.T) {
	evicted := 0
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{
			Writers: 1, Shards: 4, TTL: time.Minute,
			OnEvict: func(uint64, []byte) { evicted++ },
		},
		K: 256,
	})
	defer tab.Close()
	now := time.Now().UnixNano()
	tab.now = func() int64 { return now }

	w := tab.Writer(0)
	const key = 42
	for i := uint64(0); i < 5; i++ {
		w.UpdateKeyed(key, i) // fills the writer cache for key
	}
	if hits, _ := w.CacheStats(); hits == 0 {
		t.Fatal("repeat single-key updates never hit the writer cache")
	}

	// Expire and evict the key while the writer's cache still points
	// at its entry.
	now += 2 * time.Minute.Nanoseconds()
	if n := tab.EvictExpired(); n != 1 {
		t.Fatalf("EvictExpired = %d, want 1", n)
	}
	if evicted != 1 {
		t.Fatalf("OnEvict fired %d times, want 1", evicted)
	}

	// The next updates must create a fresh incarnation through the
	// slow path (stale cache slot dropped on epoch mismatch).
	for i := uint64(100); i < 103; i++ {
		w.UpdateKeyed(key, i)
	}
	if got := tab.Keys(); got != 1 {
		t.Fatalf("Keys = %d after resurrection-by-update, want 1", got)
	}
	w.FlushKey(key)
	if est, ok := tab.Estimate(key); !ok || est != 3 {
		t.Fatalf("estimate = %v (ok=%v), want exactly 3 post-evict items (old incarnation must not leak in)", est, ok)
	}

	// Same through the batch path: evict again, then batch-update.
	now += 2 * time.Minute.Nanoseconds()
	if n := tab.EvictExpired(); n != 1 {
		t.Fatalf("second EvictExpired = %d, want 1", n)
	}
	w.UpdateKeyedBatch([]uint64{key, key}, []uint64{7, 8})
	w.FlushKey(key)
	if est, ok := tab.Estimate(key); !ok || est != 2 {
		t.Fatalf("estimate after batch resurrect = %v (ok=%v), want exactly 2", est, ok)
	}
}

// TestKeyedBatchCachedPathAllocs is the allocation regression for the
// cached per-writer batch path: once keys are cached, grouped batches
// must not allocate for grouping, cache lookups or entry resolution.
func TestKeyedBatchCachedPathAllocs(t *testing.T) {
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{Writers: 1, Shards: 8},
		K:     256, MaxError: 1, BufferSize: 64,
	})
	defer tab.Close()
	w := tab.Writer(0)
	const batch = 512
	keys := make([]uint64, batch)
	vals := make([]uint64, batch)
	x := uint64(1)
	for i := range keys {
		keys[i] = uint64(i % 8)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = x
	}
	for i := 0; i < 8; i++ {
		w.UpdateKeyedBatch(keys, vals)
	}
	h0, m0 := w.CacheStats()
	avg := testing.AllocsPerRun(50, func() {
		w.UpdateKeyedBatch(keys, vals)
	})
	h1, m1 := w.CacheStats()
	if h1 == h0 {
		t.Fatal("steady-state batches never hit the writer entry cache")
	}
	if m1 != m0 {
		t.Errorf("steady-state batches missed the cache %d times, want 0", m1-m0)
	}
	// Per-key sketch handoffs are pool-scheduled and may allocate a
	// small constant; the grouping, cache and resolution layers must
	// not.
	if avg > 8 {
		t.Fatalf("steady-state cached keyed batch allocates %.1f/op, want <= 8", avg)
	}
}

// TestHotKeyPromotion exercises the adaptive per-key policy end to
// end: a key crossing the volume threshold is promoted through the
// engine ladder (counted), keeps answering with its full history, and
// still round-trips through the base-parameter snapshot format.
func TestHotKeyPromotion(t *testing.T) {
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{
			Writers: 1, Shards: 4,
			HotKeys: &HotKeyPolicy{HotThreshold: 512, MaxPromotions: 2},
		},
		K: 64, MaxError: 1,
	})
	defer tab.Close()
	w := tab.Writer(0)

	const hot, n = uint64(7), 2048
	const cold = uint64(9)
	keys := make([]uint64, 256)
	vals := make([]uint64, 256)
	next := uint64(0)
	for sent := 0; sent < n; sent += len(keys) {
		for i := range keys {
			keys[i] = hot
			vals[i] = next * 0x9e3779b97f4a7c15
			next++
		}
		w.UpdateKeyedBatch(keys, vals)
	}
	w.UpdateKeyed(cold, 1)
	tab.Drain()

	if got := tab.Promotions(); got != 2 {
		t.Fatalf("promotions = %d, want 2 (threshold 512 crossed repeatedly, capped at 2)", got)
	}
	est, ok := tab.Estimate(hot)
	if !ok || est < n*0.75 || est > n*1.25 {
		t.Fatalf("hot-key estimate = %v (ok=%v), want ~%d", est, ok, n)
	}
	if est, ok := tab.Estimate(cold); !ok || est != 1 {
		t.Fatalf("cold-key estimate = %v (ok=%v), want exactly 1", est, ok)
	}

	// Promoted keys must export base-parameter compacts: the snapshot
	// round-trips and self-merges without kind/param errors.
	data, err := tab.SnapshotBinary()
	if err != nil {
		t.Fatalf("SnapshotBinary: %v", err)
	}
	snap, err := UnmarshalThetaSnapshot[uint64](data)
	if err != nil {
		t.Fatalf("UnmarshalThetaSnapshot: %v", err)
	}
	c, ok := snap.Get(hot)
	if !ok {
		t.Fatal("snapshot lost the hot key")
	}
	if got := c.Estimate(); got < n*0.6 || got > n*1.4 {
		t.Fatalf("snapshot hot-key estimate = %v, want ~%d", got, n)
	}
	if err := snap.Merge(tab.Snapshot()); err != nil {
		t.Fatalf("snapshot self-merge after promotion: %v", err)
	}

	// Rollup spans promoted and unpromoted keys through one aggregator.
	if got := tab.Rollup().Estimate(); got < n*0.6 {
		t.Fatalf("rollup = %v, want >= ~%d", got, n)
	}

	// The promoted sketch keeps ingesting (history + new both visible).
	for i := range keys {
		keys[i] = hot
		vals[i] = (uint64(n) + uint64(i)) * 0x9e3779b97f4a7c15
	}
	w.UpdateKeyedBatch(keys, vals)
	tab.Drain()
	if est2, _ := tab.Estimate(hot); est2 <= est {
		t.Fatalf("estimate did not grow after post-promotion ingest: %v -> %v", est, est2)
	}
}

// TestHotKeyPromotionConcurrencyStress drives batch writers, single
// updaters, wait-free queries and cap evictions concurrently against a
// low promotion threshold: promotion takes entry locks exclusively
// while entries are mapped, so this pins the lock discipline (no
// reader/writer cycle between entry locks and shard locks) and the
// promote-vs-evict dead-entry guard. A deadlock fails via test timeout.
func TestHotKeyPromotionConcurrencyStress(t *testing.T) {
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{
			Writers: 3, Shards: 8, MaxKeys: 64,
			HotKeys: &HotKeyPolicy{HotThreshold: 64, MaxPromotions: 3},
		},
		K: 64, MaxError: 1,
	})
	defer tab.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			ks := make([]uint64, 128)
			vs := make([]uint64, 128)
			x := uint64(wi) + 1
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range ks {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					if j%2 == 0 {
						ks[j] = uint64(j % 4) // hot keys: promoted repeatedly
					} else {
						ks[j] = x % 512 // churn keys: evicted repeatedly
					}
					vs[j] = x
				}
				w.UpdateKeyedBatch(ks, vs)
			}
		}(wi)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := tab.Writer(2)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				w.UpdateKeyed(i%4, i)
			}
		}
	}()
	deadline := time.After(2 * time.Second)
	queries := 0
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			for k := uint64(0); k < 8; k++ {
				tab.Estimate(k)
				queries++
			}
		}
	}
	close(stop)
	wg.Wait()
	if queries == 0 {
		t.Fatal("no queries completed")
	}
	if tab.Promotions() == 0 {
		t.Error("stress run produced no promotions")
	}
	if tab.Evictions() == 0 {
		t.Error("stress run produced no evictions")
	}
}

// TestHotKeyPromotionEvictSpill pins the eviction path for promoted
// keys: the spilled snapshot carries the full (base + live) history.
func TestHotKeyPromotionEvictSpill(t *testing.T) {
	var spilled []byte
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{
			Writers: 1, Shards: 4, TTL: time.Minute,
			HotKeys: &HotKeyPolicy{HotThreshold: 256, MaxPromotions: 1},
			OnEvict: func(_ uint64, b []byte) { spilled = b },
		},
		K: 64, MaxError: 1,
	})
	defer tab.Close()
	now := time.Now().UnixNano()
	tab.now = func() int64 { return now }
	w := tab.Writer(0)
	const n = 1024
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = 1
		vals[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	w.UpdateKeyedBatch(keys, vals)
	if tab.Promotions() == 0 {
		t.Fatal("no promotion before eviction")
	}
	now += 2 * time.Minute.Nanoseconds()
	if tab.EvictExpired() != 1 {
		t.Fatal("key not evicted")
	}
	if spilled == nil {
		t.Fatal("no spill bytes")
	}
	c, err := theta.UnmarshalCompact(spilled)
	if err != nil {
		t.Fatalf("spill unmarshal: %v", err)
	}
	if got := c.Estimate(); got < n*0.6 || got > n*1.4 {
		t.Fatalf("spilled estimate = %v, want ~%d (history must survive promotion + eviction)", got, n)
	}
}
