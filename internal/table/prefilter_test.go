package table

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
	"github.com/fcds/fcds/internal/hll"
	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/relax"
	"github.com/fcds/fcds/internal/theta"
)

// The tests here pin the writer-side filter: pass 1 of a keyed batch
// drops an item against its key's cached hint before the item reaches a
// map, a lock or a sketch. Each fails on an implementation that gets one
// of the filter's four obligations wrong — never filter against an
// evicted incarnation, credit a dropped item as the update it was,
// stage one kind of value, leave r alone — not on the unfiltered parent.

const hotKey = uint64(42)

// feedHot sends n distinct items of one key through w in 2 048-item
// batches, starting at item number from.
func feedHot(w *ThetaTableWriter[uint64], key uint64, from, n int) {
	const chunk = 2048
	keys := make([]uint64, chunk)
	for i := range keys {
		keys[i] = key
	}
	for ; n > 0; n -= min(n, chunk) {
		vs := make([]uint64, min(n, chunk))
		for i := range vs {
			vs[i] = key<<32 | uint64(from)
			from++
		}
		w.UpdateKeyedBatch(keys[:len(vs)], vs)
	}
}

// droppable returns n distinct items whose Θ-space hash lies in the
// upper half: any key far above K has Θ far below that, so a writer
// that holds the key's hint drops every one of them.
func droppable(eng core.Engine[uint64, float64, *theta.Compact], n int) []uint64 {
	vs := make([]uint64, 0, n)
	for v := uint64(1) << 48; len(vs) < n; v++ {
		if eng.HashValue(v) >= hash.MaxThetaValue/2 {
			vs = append(vs, v)
		}
	}
	return vs
}

// hitsOf reads a live key's hot-key counter.
func hitsOf(tab *ThetaTable[uint64], key uint64) int64 {
	sh := &tab.shards[keyHash(key)&tab.mask]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.m[key].hits.Load()
}

func repeatKey(key uint64, n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = key
	}
	return ks
}

// TestPrefilterEvictedIncarnation: a key far above K is evicted between
// two batches of one writer whose cache still holds its slot and its
// (tight) hint. The next batch's items must land, all of them, in the
// fresh incarnation — which is flat, so its estimate is their count.
func TestPrefilterEvictedIncarnation(t *testing.T) {
	for _, cause := range []string{"ttl", "cap"} {
		t.Run(cause, func(t *testing.T) {
			var clock atomic.Int64
			evicted := 0
			tcfg := Config[uint64]{Writers: 1, Shards: 1, OnEvict: func(uint64, []byte) { evicted++ }}
			if cause == "ttl" {
				tcfg.TTL = time.Minute
			} else {
				tcfg.MaxKeys = 2
			}
			tab := NewTheta(ThetaConfig[uint64]{Table: tcfg, K: 64})
			defer tab.Close()
			tab.now = func() int64 { return clock.Add(1) }
			w := tab.Writer(0)
			feedHot(w, hotKey, 0, 20_000)
			if tab.Stats().Prefiltered == 0 {
				t.Fatal("the filter never engaged; the test would not notice a stale hint")
			}
			if cause == "ttl" {
				clock.Add(2 * time.Minute.Nanoseconds())
				tab.EvictExpired()
			} else {
				// Two younger keys through another handle push the hot
				// key, the least recently updated, over the cap.
				other := tab.Writer(0)
				other.UpdateKeyed(1, 1)
				other.UpdateKeyed(2, 2)
			}
			if evicted != 1 {
				t.Fatalf("%d keys evicted, want the hot key alone", evicted)
			}
			before := tab.Stats().Prefiltered
			const n = 100 // below the eager limit of K=64 (124 updates)
			w.UpdateKeyedBatch(repeatKey(hotKey, n), droppable(tab.Engine(), n))
			if est, ok := tab.Estimate(hotKey); !ok || est != n {
				t.Fatalf("fresh incarnation estimates %v (ok=%v), want exactly %d: items were filtered against the evicted one", est, ok, n)
			}
			if d := tab.Stats().Prefiltered - before; d != 0 {
				t.Fatalf("%d items dropped against an evicted incarnation's hint", d)
			}
		})
	}
}

// TestPrefilterEvictionRace is the same obligation with the eviction
// racing the batches (run under -race): every item is either dropped
// against an incarnation that was in the map when the batch looked, or
// applied to a live one, so the estimates of all incarnations — spilled
// and live — add up to the stream. A writer that filtered a fresh
// incarnation with its predecessor's hint would lose most of the first
// batch after every eviction.
func TestPrefilterEvictionRace(t *testing.T) {
	const minBatches, minEvictions, chunk = 90, 20, 2048
	var clock atomic.Int64
	var mu sync.Mutex
	var spilled float64
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{
			Writers: 1, Shards: 4, TTL: time.Microsecond,
			OnEvict: func(_ uint64, snap []byte) {
				c, err := theta.UnmarshalCompact(snap)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				spilled += c.Estimate()
				mu.Unlock()
			},
		},
		K: 256,
	})
	defer tab.Close()
	tab.now = func() int64 { return clock.Add(1) }
	// The writer keeps going until enough evictions have raced it, so
	// the test does not depend on how the two goroutines are scheduled.
	var evictions atomic.Int64
	sent := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := tab.Writer(0)
		for ; sent < minBatches || evictions.Load() < minEvictions; sent++ {
			feedHot(w, hotKey, sent*chunk, chunk)
		}
	}()
	for running := true; running; runtime.Gosched() {
		select {
		case <-done:
			running = false
		default:
			clock.Add(time.Millisecond.Nanoseconds())
			evictions.Add(int64(tab.EvictExpired()))
		}
	}
	tab.Drain()
	live, _ := tab.Estimate(hotKey)
	mu.Lock()
	total := spilled + live
	mu.Unlock()
	if want := float64(sent * chunk); total < 0.9*want || total > 1.1*want {
		t.Fatalf("incarnations add up to %.0f items, want %.0f ± 10%% (%d evictions)", total, want, evictions.Load())
	}
}

// TestPrefilterCreditsDroppedRuns: a hot key whose items are all
// filtered, batch after batch, was still updated — it is not TTL-evicted,
// is not the LRU victim, and its hits reach the promotion threshold on
// the same batch as in a table that never filters.
func TestPrefilterCreditsDroppedRuns(t *testing.T) {
	t.Run("ttl", func(t *testing.T) {
		var clock atomic.Int64
		tab := NewTheta(ThetaConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 2, TTL: time.Minute}, K: 64})
		defer tab.Close()
		tab.now = clock.Load
		w := tab.Writer(0)
		feedHot(w, hotKey, 0, 20_000)
		dead := droppable(tab.Engine(), 256)
		for i := 0; i < 10; i++ {
			clock.Add(time.Minute.Nanoseconds() * 3 / 4)
			before := tab.Stats().Prefiltered
			w.UpdateKeyedBatch(repeatKey(hotKey, len(dead)), dead)
			if d := tab.Stats().Prefiltered - before; d != int64(len(dead)) {
				t.Fatalf("batch %d: %d of %d items dropped; the test needs all of them filtered", i, d, len(dead))
			}
			if n := tab.EvictExpired(); n != 0 {
				t.Fatalf("batch %d: EvictExpired evicted %d keys; the hot key was updated this instant", i, n)
			}
		}
		if _, ok := tab.Estimate(hotKey); !ok {
			t.Fatal("hot key gone")
		}
	})
	t.Run("lru", func(t *testing.T) {
		var clock atomic.Int64
		var victims []uint64
		tab := NewTheta(ThetaConfig[uint64]{
			Table: Config[uint64]{Writers: 1, Shards: 1, MaxKeys: 3, OnEvict: func(k uint64, _ []byte) { victims = append(victims, k) }},
			K:     64,
		})
		defer tab.Close()
		tab.now = func() int64 { return clock.Add(1) }
		w := tab.Writer(0)
		feedHot(w, hotKey, 0, 20_000)
		w.UpdateKeyed(1, 1)
		w.UpdateKeyed(2, 2)
		dead := droppable(tab.Engine(), 256)
		before := tab.Stats().Prefiltered
		w.UpdateKeyedBatch(repeatKey(hotKey, len(dead)), dead) // the most recent update of any key
		if d := tab.Stats().Prefiltered - before; d != int64(len(dead)) {
			t.Fatalf("%d of %d items dropped; the test needs all of them filtered", d, len(dead))
		}
		w.UpdateKeyed(3, 3) // over the cap: evicts the least recently updated
		if len(victims) != 1 || victims[0] != 1 {
			t.Fatalf("victims %v, want [1]: the hot key's filtered batch was its latest update", victims)
		}
	})
	t.Run("promotion", func(t *testing.T) {
		// Same seeded stream, same batches, into a filtering table and
		// into one whose engine has filtering disabled (nothing is ever
		// dropped, at any level): promotions must agree after every
		// batch.
		hot := &HotKeyPolicy{HotThreshold: 30_000, MaxPromotions: 3}
		tcfg := Config[uint64]{Writers: 1, Shards: 4, HotKeys: hot}
		tab := NewTheta(ThetaConfig[uint64]{Table: tcfg, K: 64, BufferSize: 4})
		defer tab.Close()
		plain := New[uint64](tcfg, core.Engine[uint64, float64, *theta.Compact](theta.NewEngine(
			theta.ConcurrentConfig{K: 64, Writers: 1, BufferSize: 4, DisableFiltering: true})))
		defer plain.Close()
		w, pw := tab.Writer(0), plain.Writer(0)
		rng := rand.New(rand.NewSource(22))
		zipf := rand.NewZipf(rng, 1.2, 1, 19)
		keys, vals := make([]uint64, 2048), make([]uint64, 2048)
		for b := 0; b < 120; b++ {
			for i := range keys {
				keys[i] = zipf.Uint64()
				vals[i] = rng.Uint64()
			}
			w.UpdateKeyedBatch(keys, vals)
			pw.UpdateKeyedBatch(keys, vals)
			if tab.Promotions() != plain.Promotions() {
				t.Fatalf("batch %d: %d promotions with the filter, %d without", b, tab.Promotions(), plain.Promotions())
			}
		}
		if tab.Promotions() < 3 {
			t.Fatalf("%d promotions; the stream should cross the threshold repeatedly", tab.Promotions())
		}
		if st := tab.Stats(); st.Prefiltered < 100_000 {
			t.Fatalf("only %d items prefiltered; the promotions were not counted from dropped runs", st.Prefiltered)
		}
		if plain.Stats().Prefiltered != 0 {
			t.Fatal("the DisableFiltering table dropped items")
		}
	})
}

// equivalenceStream is a seeded keyed stream whose hot keys go far above
// K: 30 zipf keys, every item distinct.
func equivalenceStream(n int) (keys, vals []uint64) {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, 29)
	keys, vals = make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i] = zipf.Uint64()
		vals[i] = rng.Uint64()
	}
	return keys, vals
}

// equivalenceConfig has no eager phase: where a flat key materializes
// depends on where its runs end, which is exactly what differs between
// a batch feed and an item-at-a-time feed (and did before the filter).
// Without it a key's compact is a function of its items' order alone.
func equivalenceConfig() ThetaConfig[uint64] {
	return ThetaConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 8}, K: 64, MaxError: 1, BufferSize: 4}
}

func compactsOf(t *testing.T, tab *Table[uint64, uint64, float64, *theta.Compact]) map[uint64][]byte {
	t.Helper()
	tab.Drain()
	out := map[uint64][]byte{}
	for k := uint64(0); k < 32; k++ {
		if c, ok := tab.CompactKey(k); ok {
			b, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			out[k] = b
		}
	}
	return out
}

// TestPrefilterBatchEquivalence: fed the same seeded stream — raw, as
// string items, or pre-hashed; in 1 000-item batches — every per-key
// compact after Drain is byte-identical to that of a table that saw the
// stream one item at a time: through UpdateKeyed for raw values, and
// for hashes through an engine with filtering disabled altogether.
func TestPrefilterBatchEquivalence(t *testing.T) {
	const n, chunk = 60_000, 1000
	keys, vals := equivalenceStream(n)

	ref := NewTheta(equivalenceConfig())
	defer ref.Close()
	for i, k := range keys {
		ref.Writer(0).UpdateKeyed(k, vals[i])
	}
	want := compactsOf(t, ref.Table)
	if len(want) < 20 {
		t.Fatalf("reference holds %d keys", len(want))
	}

	same := func(t *testing.T, tab *ThetaTable[uint64], want map[uint64][]byte) {
		t.Helper()
		got := compactsOf(t, tab.Table)
		if len(got) != len(want) {
			t.Fatalf("%d keys, want %d", len(got), len(want))
		}
		for k, b := range want {
			if !bytes.Equal(got[k], b) {
				t.Errorf("key %d: compact differs from the item-at-a-time table's", k)
			}
		}
		if st := tab.Stats(); st.Prefiltered < n/2 {
			t.Errorf("only %d of %d items prefiltered; the feed did not exercise the filter", st.Prefiltered, n)
		}
	}

	t.Run("raw", func(t *testing.T) {
		tab := NewTheta(equivalenceConfig())
		defer tab.Close()
		w := tab.Writer(0)
		for off := 0; off < n; off += chunk {
			w.UpdateKeyedBatch(keys[off:off+chunk], vals[off:off+chunk])
		}
		same(t, tab, want)
	})
	t.Run("hashed", func(t *testing.T) {
		tab := NewTheta(equivalenceConfig())
		defer tab.Close()
		hs := make([]uint64, n)
		for i, v := range vals {
			hs[i] = tab.Engine().HashValue(v)
		}
		w := tab.Writer(0)
		for off := 0; off < n; off += chunk {
			w.UpdateKeyedHashedBatch(keys[off:off+chunk], hs[off:off+chunk])
		}
		same(t, tab, want)
	})
	t.Run("strings", func(t *testing.T) {
		items := make([]string, n)
		for i, v := range vals {
			items[i] = fmt.Sprintf("item-%x", v)
		}
		tcfg, eng := equivalenceConfig().Engine()
		unfiltered := New[uint64](tcfg, core.Engine[uint64, float64, *theta.Compact](theta.NewEngine(
			theta.ConcurrentConfig{K: 64, Writers: 1, MaxError: 1, BufferSize: 4, DisableFiltering: true})))
		defer unfiltered.Close()
		uw := unfiltered.Writer(0)
		for i, k := range keys {
			uw.UpdateKeyedHashedBatch([]uint64{k}, []uint64{eng.HashString(items[i])})
		}
		if unfiltered.Stats().Prefiltered != 0 {
			t.Fatal("the DisableFiltering reference dropped items")
		}
		tab := NewTheta(equivalenceConfig())
		defer tab.Close()
		w := tab.Writer(0)
		for off := 0; off < n; off += chunk {
			w.UpdateKeyedStringBatch(keys[off:off+chunk], items[off:off+chunk])
		}
		same(t, tab, compactsOf(t, unfiltered))
	})
}

// TestPrefilterRelaxation: four writers feed one key far above K, the
// filter active in all of them, while a reader takes compacts. Θ only
// falls, so an update whose hash is below the final Θ was never
// filtered by anyone and never discarded by a rebuild: the number of
// such hashes a compact retains is a counting query over exactly those
// updates, and it must satisfy the r-relaxed counting specification
// with the table's own r = 2·N·b — the filter buffers nothing, so it
// may not widen r, and it may not lose an update that counts.
func TestPrefilterRelaxation(t *testing.T) {
	const writers, perWriter, chunk = 4, 12_000, 300
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{Writers: writers, Shards: 4},
		K:     256, BufferSize: 1,
	})
	defer tab.Close()
	rec := relax.NewRecorder()
	var compacts []*theta.Compact // the reader's, in query order
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		// Bounded: CheckCounting is quadratic in the number of queries.
		for n := 0; n < 400; n++ {
			select {
			case <-stop:
				return
			default:
			}
			inv := rec.Begin()
			if c, ok := tab.CompactKey(hotKey); ok {
				rec.EndQuery(0, inv)
				compacts = append(compacts, c)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			keys := repeatKey(hotKey, chunk)
			for sent := 0; sent < perWriter; sent += chunk {
				vs := make([]uint64, chunk)
				for i := range vs {
					vs[i] = uint64(wi)<<32 | uint64(sent+i)
				}
				inv := rec.Begin()
				w.UpdateKeyedBatch(keys, vs)
				for _, v := range vs {
					rec.EndUpdate(wi, v, inv)
				}
			}
		}(wi)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	tab.Drain()
	final, _ := tab.CompactKey(hotKey)
	theta0 := final.Theta()
	below := func(c *theta.Compact) (n int) {
		for _, h := range c.Hashes() {
			if h < theta0 {
				n++
			}
		}
		return n
	}
	var history []relax.Event
	counted, q := 0, 0
	for _, e := range rec.History() {
		switch e.Kind {
		case relax.KindUpdate:
			if tab.Engine().HashValue(e.Value) >= theta0 {
				continue // changed nothing that survives: not part of the counting history
			}
			counted++
		case relax.KindQuery:
			e.Result = float64(below(compacts[q]))
			q++
		}
		history = append(history, e)
	}
	if st := tab.Stats(); st.Prefiltered < writers*perWriter/2 {
		t.Fatalf("only %d of %d items prefiltered; the filter was not active", st.Prefiltered, writers*perWriter)
	}
	if counted < 256 {
		t.Fatalf("%d counted updates, want at least K", counted)
	}
	if err := relax.CheckCounting(history, tab.Relaxation()); err != nil {
		t.Fatal(err)
	}
	if got := below(final); got != counted {
		t.Fatalf("after Drain the key retains %d hashes below Θ, want all %d fed: the filter lost an update that counts", got, counted)
	}
}

// TestPrefilterOnlyWhereOffered: a table whose engine has filtering
// disabled, and the families without the capability, never drop.
func TestPrefilterOnlyWhereOffered(t *testing.T) {
	const n = 40_000
	keys := repeatKey(hotKey, 2048)
	check := func(t *testing.T, st Stats) {
		t.Helper()
		if st.Prefiltered != 0 {
			t.Fatalf("%d items prefiltered, want 0", st.Prefiltered)
		}
		if st.CacheHits == 0 {
			t.Fatal("the stream never hit the entry cache")
		}
	}
	t.Run("theta-DisableFiltering", func(t *testing.T) {
		tab := New[uint64](Config[uint64]{Writers: 1}, core.Engine[uint64, float64, *theta.Compact](theta.NewEngine(
			theta.ConcurrentConfig{K: 64, Writers: 1, BufferSize: 8, DisableFiltering: true})))
		defer tab.Close()
		w := tab.Writer(0)
		for off := 0; off < n; off += len(keys) {
			w.UpdateKeyedBatch(keys, itemsOf(uint64(off), len(keys)))
		}
		check(t, tab.Stats())
	})
	t.Run("hll", func(t *testing.T) {
		tcfg := Config[uint64]{Writers: 1}
		tab := New[uint64](tcfg, core.Engine[uint64, float64, *hll.Sketch](hll.NewEngine(hll.ConcurrentConfig{Writers: 1})))
		defer tab.Close()
		w := tab.Writer(0)
		for off := 0; off < n; off += len(keys) {
			w.UpdateKeyedBatch(keys, itemsOf(uint64(off), len(keys)))
		}
		check(t, tab.Stats())
	})
	t.Run("quantiles", func(t *testing.T) {
		tab := New[uint64](Config[uint64]{Writers: 1}, core.Engine[float64, *quantiles.Snapshot, *quantiles.Sketch](
			quantiles.NewEngine(quantiles.ConcurrentConfig{Writers: 1})))
		defer tab.Close()
		w := tab.Writer(0)
		vs := make([]float64, len(keys))
		for off := 0; off < n; off += len(keys) {
			for i := range vs {
				vs[i] = float64(off + i)
			}
			w.UpdateKeyedBatch(keys, vs)
		}
		check(t, tab.Stats())
	})
}

// TestPrefilterBatchReset: BatchReset after a partly staged frame
// leaves nothing of it behind — no drop counted, no key credited — and
// a batch whose items were all dropped still commits and credits them.
func TestPrefilterBatchReset(t *testing.T) {
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{Writers: 1, Shards: 2, HotKeys: &HotKeyPolicy{HotThreshold: 1 << 40}},
		K:     64,
	})
	defer tab.Close()
	w := tab.Writer(0)
	feedHot(w, hotKey, 0, 20_000)
	hits := func() int64 { return hitsOf(tab, hotKey) }
	dead := droppable(tab.Engine(), 300)
	st0, h0 := tab.Stats(), hits()

	// Half a frame staged, then discarded.
	for _, v := range dead[:150] {
		w.BatchAdd(hotKey, v)
	}
	w.BatchAdd(7, 1) // a key the table has never seen
	w.BatchReset()
	w.BatchCommit() // nothing staged: a no-op
	if st := tab.Stats(); st.Prefiltered != st0.Prefiltered || st.Keys != st0.Keys || hits() != h0 {
		t.Fatalf("a reset frame left marks: %+v → %+v, hits %d → %d", st0, st, h0, hits())
	}

	// A whole frame, every item dropped: committed, counted, credited.
	for _, v := range dead {
		w.BatchAdd(hotKey, v)
	}
	w.BatchCommit()
	st := tab.Stats()
	if d := st.Prefiltered - st0.Prefiltered; d != int64(len(dead)) {
		t.Fatalf("%d of %d items dropped; the test needs all of them filtered", d, len(dead))
	}
	if got := hits() - h0; got != int64(len(dead)) {
		t.Fatalf("an all-dropped frame credited %d updates, want %d", got, len(dead))
	}
	if st.CacheHits != st0.CacheHits+1 || st.ShardLookups != st0.ShardLookups {
		t.Fatalf("an all-dropped frame resolved its key as %d hits, %d lookups; want one hit", st.CacheHits-st0.CacheHits, st.ShardLookups-st0.ShardLookups)
	}
}

// TestPrefilterSlotChangesHands: a hint belongs to the entry it was read
// from. When another key takes a hot key's cache slot — through the
// single-item path, or in the middle of a batch's apply because it is
// the hotter of the two in that batch — nothing of the hot key's hint
// filters the newcomer, and the hot key's dropped items are credited all
// the same.
func TestPrefilterSlotChangesHands(t *testing.T) {
	other := hotKey + 1
	for keyHash(other)&(writerCacheSize-1) != keyHash(hotKey)&(writerCacheSize-1) {
		other++
	}
	newTab := func() (*ThetaTable[uint64], *ThetaTableWriter[uint64]) {
		tab := NewTheta(ThetaConfig[uint64]{
			Table: Config[uint64]{Writers: 1, Shards: 2, HotKeys: &HotKeyPolicy{HotThreshold: 1 << 40}},
			K:     64,
		})
		w := tab.Writer(0)
		feedHot(w, hotKey, 0, 20_000)
		return tab, w
	}
	t.Run("single-item", func(t *testing.T) {
		tab, w := newTab()
		defer tab.Close()
		w.UpdateKeyed(other, 1)
		const n = 100
		w.UpdateKeyedBatch(repeatKey(other, n), droppable(tab.Engine(), n))
		if est, _ := tab.Estimate(other); est != n+1 {
			t.Fatalf("the newcomer estimates %v, want exactly %d: it was filtered with its predecessor's hint", est, n+1)
		}
	})
	t.Run("mid-apply", func(t *testing.T) {
		tab, w := newTab()
		defer tab.Close()
		const nHot, nOther = 10, 20
		dead := droppable(tab.Engine(), nHot+2*nOther)
		h0, before := hitsOf(tab, hotKey), tab.Stats().Prefiltered
		w.UpdateKeyedBatch(append(repeatKey(hotKey, nHot), repeatKey(other, nOther)...), dead[:nHot+nOther])
		if d := tab.Stats().Prefiltered - before; d != nHot {
			t.Fatalf("%d items dropped, want the hot key's %d", d, nHot)
		}
		if got := hitsOf(tab, hotKey) - h0; got != nHot {
			t.Fatalf("the hot key was credited %d updates, want %d", got, nHot)
		}
		// The slot is the newcomer's now; its next batch is grouped
		// through it and, the key being flat, not filtered.
		st := tab.Stats()
		w.UpdateKeyedBatch(repeatKey(other, nOther), dead[nHot+nOther:])
		if est, _ := tab.Estimate(other); est != 2*nOther {
			t.Fatalf("the newcomer estimates %v, want exactly %d", est, 2*nOther)
		}
		if now := tab.Stats(); now.CacheHits != st.CacheHits+1 || now.Prefiltered != st.Prefiltered {
			t.Fatalf("the newcomer's second batch: %d cache hits, %d dropped; want 1, 0", now.CacheHits-st.CacheHits, now.Prefiltered-st.Prefiltered)
		}
	})
}
