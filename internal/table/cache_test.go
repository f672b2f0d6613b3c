package table

import (
	"sync"
	"testing"
	"time"
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

// TestHotKeyConcurrencyStress drives batch writers, single updaters,
// wait-free queries and cap evictions concurrently on Θ and HLL tables
// whose four hot keys the batch writers mostly filter in pass 1, while
// churn keys keep being evicted and recreated beside them: it pins the lock discipline (no reader/writer cycle
// between entry locks and shard locks) beside the filter's stamp
// checks. A deadlock fails via test timeout.
func TestHotKeyConcurrencyStress(t *testing.T) {
	tcfg := Config[uint64]{Writers: 3, Shards: 8, MaxKeys: 64}
	t.Run("theta", func(t *testing.T) {
		tab := NewTheta(ThetaConfig[uint64]{Table: tcfg, K: 64, MaxError: 1})
		defer tab.Close()
		hotKeyStress(t, tab.Table)
	})
	t.Run("hll", func(t *testing.T) {
		tab := NewHLL(HLLConfig[uint64]{Table: tcfg, Precision: 6})
		defer tab.Close()
		hotKeyStress(t, tab.Table)
	})
}

func hotKeyStress[C any](t *testing.T, tab *Table[uint64, uint64, float64, C]) {
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
					if i%8 != 0 || j%2 == 0 {
						ks[j] = uint64(j % 4) // hot keys: filtered
					} else {
						// Churn keys, one batch in eight: evicted
						// repeatedly, and each eviction voids the
						// shard's cached hints until a run refreshes
						// them.
						ks[j] = x % 512
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
	deadline := time.After(time.Second)
	queries := 0
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			for k := uint64(0); k < 8; k++ {
				tab.Query(k)
				tab.CompactKey(k)
				queries++
			}
		}
	}
	close(stop)
	wg.Wait()
	if queries == 0 {
		t.Fatal("no queries completed")
	}
	if st := tab.Stats(); st.Prefiltered == 0 {
		t.Error("stress run filtered no items")
	}
	if tab.Evictions() == 0 {
		t.Error("stress run produced no evictions")
	}
}
