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
// The obligations that do not depend on Θ's estimator run for both
// families with the filter, Θ (the plain subtest names) and HLL (the
// hll- ones).

const hotKey = uint64(42)

// filterFamily is a family with the writer-side filter as the
// obligation tests drive it: a table of it, and a weak hint — one that
// the hint of any key fed far past the filter's threshold (feedHot's
// 20 000 items) has long overtaken — so that an item failing ShouldAdd
// against the weak hint is dropped by every writer holding such a key's
// hint.
type filterFamily[C any] struct {
	newTable func(Config[uint64]) *Table[uint64, uint64, float64, C]
	weakHint uint64
}

// thetaFamily: K=64, so a key is flat below 124 updates and far below
// Θ = 1/2 after 20 000 distinct items.
var thetaFamily = filterFamily[*theta.Compact]{
	newTable: func(tcfg Config[uint64]) *Table[uint64, uint64, float64, *theta.Compact] {
		return NewTheta(ThetaConfig[uint64]{Table: tcfg, K: 64}).Table
	},
	weakHint: hash.MaxThetaValue / 2,
}

// hllFamily: 64 registers, so a key's every register is past rank 1
// after a few hundred distinct items, and below 64 items some register
// is always 0 — no hint at all.
var hllFamily = filterFamily[*hll.Sketch]{
	newTable: func(tcfg Config[uint64]) *Table[uint64, uint64, float64, *hll.Sketch] {
		return NewHLL(HLLConfig[uint64]{Table: tcfg, Precision: 6}).Table
	},
	weakHint: 1,
}

// droppable returns n distinct items that fail ShouldAdd against the
// family's weak hint: a writer that holds the hint of a key far past
// the filter's threshold drops every one of them.
func (f filterFamily[C]) droppable(tab *Table[uint64, uint64, float64, C], n int) []uint64 {
	eng := tab.Engine()
	filt := eng.(core.FilterEngine[uint64])
	vs := make([]uint64, 0, n)
	for v := uint64(1) << 48; len(vs) < n; v++ {
		if !filt.ShouldAdd(f.weakHint, eng.HashValue(v)) {
			vs = append(vs, v)
		}
	}
	return vs
}

// fresh returns the serialized compact of key in a table of the family
// that took items and nothing else.
func (f filterFamily[C]) fresh(t *testing.T, key uint64, items []uint64) []byte {
	t.Helper()
	tab := f.newTable(Config[uint64]{Writers: 1})
	defer tab.Close()
	tab.Writer(0).UpdateKeyedBatch(repeatKey(key, len(items)), items)
	return keyBytes(t, tab, key)
}

// keyBytes drains tab and returns key's compact, serialized.
func keyBytes[C any](t *testing.T, tab *Table[uint64, uint64, float64, C], key uint64) []byte {
	t.Helper()
	tab.Drain()
	c, ok := tab.CompactKey(key)
	if !ok {
		t.Fatalf("key %d is not live", key)
	}
	b, err := tab.Engine().MarshalCompact(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// feedHot sends n distinct items of one key through w in 2 048-item
// batches, starting at item number from.
func feedHot[C any](w *Writer[uint64, uint64, float64, C], key uint64, from, n int) {
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

// touchedOf reads a live key's last-update time.
func touchedOf[C any](tab *Table[uint64, uint64, float64, C], key uint64) int64 {
	sh := &tab.shards[keyHash(key)&tab.mask]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.m[key].touched.Load()
}

func repeatKey(key uint64, n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = key
	}
	return ks
}

// TestPrefilterEvictedIncarnation: a key far past the filter's
// threshold is evicted between two batches of one writer whose cache
// still holds its slot and its (tight) hint. The next batch's items
// must land, all of them, in the fresh incarnation: its compact is that
// of a key that saw those items alone (for Θ a flat key, whose estimate
// is their count).
func TestPrefilterEvictedIncarnation(t *testing.T) {
	for _, cause := range []string{"ttl", "cap"} {
		t.Run(cause, func(t *testing.T) { testEvictedIncarnation(t, thetaFamily, cause) })
		t.Run("hll-"+cause, func(t *testing.T) { testEvictedIncarnation(t, hllFamily, cause) })
	}
}

func testEvictedIncarnation[C any](t *testing.T, f filterFamily[C], cause string) {
	var clock atomic.Int64
	evicted := 0
	tcfg := Config[uint64]{Writers: 1, Shards: 1, OnEvict: func(uint64, []byte) { evicted++ }}
	if cause == "ttl" {
		tcfg.TTL = time.Minute
	} else {
		tcfg.MaxKeys = 2
	}
	tab := f.newTable(tcfg)
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
		// Two younger keys through another handle push the hot key, the
		// least recently updated, over the cap.
		other := tab.Writer(0)
		other.UpdateKeyed(1, 1)
		other.UpdateKeyed(2, 2)
	}
	if evicted != 1 {
		t.Fatalf("%d keys evicted, want the hot key alone", evicted)
	}
	before := tab.Stats().Prefiltered
	const n = 100 // below Θ's eager limit at K=64 (124 updates)
	items := f.droppable(tab, n)
	w.UpdateKeyedBatch(repeatKey(hotKey, n), items)
	if d := tab.Stats().Prefiltered - before; d != 0 {
		t.Fatalf("%d items dropped against an evicted incarnation's hint", d)
	}
	if !bytes.Equal(keyBytes(t, tab, hotKey), f.fresh(t, hotKey, items)) {
		t.Fatal("the fresh incarnation is not a key that saw the batch's items: they were filtered against the evicted one")
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
		w := tab.Table.Writer(0)
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
// filtered, batch after batch, was still updated — it is not
// TTL-evicted and is not the LRU victim.
func TestPrefilterCreditsDroppedRuns(t *testing.T) {
	t.Run("ttl", func(t *testing.T) { testCreditsTTL(t, thetaFamily) })
	t.Run("lru", func(t *testing.T) { testCreditsLRU(t, thetaFamily) })
	t.Run("hll-ttl", func(t *testing.T) { testCreditsTTL(t, hllFamily) })
	t.Run("hll-lru", func(t *testing.T) { testCreditsLRU(t, hllFamily) })
}

func testCreditsTTL[C any](t *testing.T, f filterFamily[C]) {
	var clock atomic.Int64
	tab := f.newTable(Config[uint64]{Writers: 1, Shards: 2, TTL: time.Minute})
	defer tab.Close()
	tab.now = clock.Load
	w := tab.Writer(0)
	feedHot(w, hotKey, 0, 20_000)
	dead := f.droppable(tab, 256)
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
	if _, ok := tab.Query(hotKey); !ok {
		t.Fatal("hot key gone")
	}
}

func testCreditsLRU[C any](t *testing.T, f filterFamily[C]) {
	var clock atomic.Int64
	var victims []uint64
	tab := f.newTable(Config[uint64]{Writers: 1, Shards: 1, MaxKeys: 3, OnEvict: func(k uint64, _ []byte) { victims = append(victims, k) }})
	defer tab.Close()
	tab.now = func() int64 { return clock.Add(1) }
	w := tab.Writer(0)
	feedHot(w, hotKey, 0, 20_000)
	w.UpdateKeyed(1, 1)
	w.UpdateKeyed(2, 2)
	dead := f.droppable(tab, 256)
	before := tab.Stats().Prefiltered
	w.UpdateKeyedBatch(repeatKey(hotKey, len(dead)), dead) // the most recent update of any key
	if d := tab.Stats().Prefiltered - before; d != int64(len(dead)) {
		t.Fatalf("%d of %d items dropped; the test needs all of them filtered", d, len(dead))
	}
	w.UpdateKeyed(3, 3) // over the cap: evicts the least recently updated
	if len(victims) != 1 || victims[0] != 1 {
		t.Fatalf("victims %v, want [1]: the hot key's filtered batch was its latest update", victims)
	}
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

func compactsOf[C any](t *testing.T, tab *Table[uint64, uint64, float64, C]) map[uint64][]byte {
	t.Helper()
	tab.Drain()
	out := map[uint64][]byte{}
	for k := uint64(0); k < 32; k++ {
		if c, ok := tab.CompactKey(k); ok {
			b, err := tab.Engine().MarshalCompact(c)
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
// for hashes through an engine with filtering disabled altogether. An
// HLL key's registers do not depend on the order its items came in, so
// the hll- subtests compare with a sequential sketch per key, fed every
// item of the key.
func TestPrefilterBatchEquivalence(t *testing.T) {
	const n, chunk = 60_000, 1000
	keys, vals := equivalenceStream(n)
	items := make([]string, n)
	for i, v := range vals {
		items[i] = fmt.Sprintf("item-%x", v)
	}

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
		sameCompacts(t, tab.Table, want, n)
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

	// The hll- subtests: a sequential sketch per key, fed every item.
	hllTable := func() *Table[uint64, uint64, float64, *hll.Sketch] {
		return hllFamily.newTable(Config[uint64]{Writers: 1, Shards: 8})
	}
	hllWant := func(t *testing.T, eng *hll.Engine, hashOf func(i int) uint64) map[uint64][]byte {
		t.Helper()
		seq := map[uint64]*hll.Sketch{}
		for i, k := range keys {
			if seq[k] == nil {
				seq[k] = hll.NewSeeded(6, eng.Seed())
			}
			seq[k].UpdateHash(hashOf(i))
		}
		want := map[uint64][]byte{}
		for k, sk := range seq {
			b, err := sk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			want[k] = b
		}
		return want
	}
	t.Run("hll-raw", func(t *testing.T) {
		tab := hllTable()
		defer tab.Close()
		eng := tab.Engine().(*hll.Engine)
		w := tab.Writer(0)
		for off := 0; off < n; off += chunk {
			w.UpdateKeyedBatch(keys[off:off+chunk], vals[off:off+chunk])
		}
		sameCompacts(t, tab, hllWant(t, eng, func(i int) uint64 { return eng.HashValue(vals[i]) }), n)
	})
	t.Run("hll-hashed", func(t *testing.T) {
		tab := hllTable()
		defer tab.Close()
		eng := tab.Engine().(*hll.Engine)
		hs := make([]uint64, n)
		for i, v := range vals {
			hs[i] = eng.HashValue(v)
		}
		w := tab.Writer(0)
		for off := 0; off < n; off += chunk {
			w.UpdateKeyedHashedBatch(keys[off:off+chunk], hs[off:off+chunk])
		}
		sameCompacts(t, tab, hllWant(t, eng, func(i int) uint64 { return hs[i] }), n)
	})
	t.Run("hll-strings", func(t *testing.T) {
		tab := hllTable()
		defer tab.Close()
		eng := tab.Engine().(*hll.Engine)
		w := &StringWriter[uint64, uint64, float64, *hll.Sketch]{tab.Writer(0)}
		for off := 0; off < n; off += chunk {
			w.UpdateKeyedStringBatch(keys[off:off+chunk], items[off:off+chunk])
		}
		sameCompacts(t, tab, hllWant(t, eng, func(i int) uint64 { return eng.HashString(items[i]) }), n)
	})
}

// sameCompacts checks that tab holds exactly want's keys, each with
// want's compact bytes, and that its writers dropped at least half of
// the n items sent.
func sameCompacts[C any](t *testing.T, tab *Table[uint64, uint64, float64, C], want map[uint64][]byte, n int) {
	t.Helper()
	got := compactsOf(t, tab)
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	for k, b := range want {
		if !bytes.Equal(got[k], b) {
			t.Errorf("key %d: compact differs from the reference's", k)
		}
	}
	if st := tab.Stats(); st.Prefiltered < int64(n/2) {
		t.Errorf("only %d of %d items prefiltered; the feed did not exercise the filter", st.Prefiltered, n)
	}
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
// disabled, and quantiles, which has no filter, never drop.
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
	var clock atomic.Int64
	tab := thetaFamily.newTable(Config[uint64]{Writers: 1, Shards: 2, TTL: time.Hour})
	defer tab.Close()
	tab.now = clock.Load
	w := tab.Writer(0)
	feedHot(w, hotKey, 0, 20_000)
	touched := func() int64 { return touchedOf(tab, hotKey) }
	dead := thetaFamily.droppable(tab, 300)
	st0, t0 := tab.Stats(), touched()

	// Half a frame staged, then discarded.
	clock.Store(1)
	w.BatchAddRun(repeatKey(hotKey, 150), dead[:150])
	w.BatchAddRun([]uint64{7}, []uint64{1}) // a key the table has never seen
	w.BatchReset()
	w.BatchCommit() // nothing staged: a no-op
	if st := tab.Stats(); st.Prefiltered != st0.Prefiltered || st.Keys != st0.Keys || touched() != t0 {
		t.Fatalf("a reset frame left marks: %+v → %+v, touched %d → %d", st0, st, t0, touched())
	}

	// A whole frame, every item dropped: committed, counted, credited.
	clock.Store(2)
	w.BatchAddRun(repeatKey(hotKey, len(dead)), dead)
	w.BatchCommit()
	st := tab.Stats()
	if d := st.Prefiltered - st0.Prefiltered; d != int64(len(dead)) {
		t.Fatalf("%d of %d items dropped; the test needs all of them filtered", d, len(dead))
	}
	if got := touched(); got != 2 {
		t.Fatalf("an all-dropped frame left the key touched at %d, want 2: it was not credited", got)
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
	t.Run("single-item", func(t *testing.T) { testSlotSingleItem(t, thetaFamily) })
	t.Run("mid-apply", func(t *testing.T) { testSlotMidApply(t, thetaFamily) })
	t.Run("hll-single-item", func(t *testing.T) { testSlotSingleItem(t, hllFamily) })
	t.Run("hll-mid-apply", func(t *testing.T) { testSlotMidApply(t, hllFamily) })
}

// slotSharer returns a key that shares hotKey's writer-cache slot.
func slotSharer() uint64 {
	other := hotKey + 1
	for keyHash(other)&(writerCacheSize-1) != keyHash(hotKey)&(writerCacheSize-1) {
		other++
	}
	return other
}

// slotTable is a table whose hot key holds a tight hint in writer 0's
// cache; the clock is the test's to set.
func slotTable[C any](f filterFamily[C], clock *atomic.Int64) (*Table[uint64, uint64, float64, C], *Writer[uint64, uint64, float64, C]) {
	tab := f.newTable(Config[uint64]{Writers: 1, Shards: 2, TTL: time.Hour})
	tab.now = clock.Load
	w := tab.Writer(0)
	feedHot(w, hotKey, 0, 20_000)
	return tab, w
}

func testSlotSingleItem[C any](t *testing.T, f filterFamily[C]) {
	var clock atomic.Int64
	tab, w := slotTable(f, &clock)
	defer tab.Close()
	other := slotSharer()
	w.UpdateKeyed(other, 1)
	const n = 100
	items := f.droppable(tab, n)
	w.UpdateKeyedBatch(repeatKey(other, n), items)
	if !bytes.Equal(keyBytes(t, tab, other), f.fresh(t, other, append([]uint64{1}, items...))) {
		t.Fatal("the newcomer is not a key that saw its items: it was filtered with its predecessor's hint")
	}
}

func testSlotMidApply[C any](t *testing.T, f filterFamily[C]) {
	var clock atomic.Int64
	tab, w := slotTable(f, &clock)
	defer tab.Close()
	other := slotSharer()
	const nHot, nOther = 10, 20
	dead := f.droppable(tab, nHot+2*nOther)
	before := tab.Stats().Prefiltered
	clock.Store(1)
	w.UpdateKeyedBatch(append(repeatKey(hotKey, nHot), repeatKey(other, nOther)...), dead[:nHot+nOther])
	if d := tab.Stats().Prefiltered - before; d != nHot {
		t.Fatalf("%d items dropped, want the hot key's %d", d, nHot)
	}
	if got := touchedOf(tab, hotKey); got != 1 {
		t.Fatalf("the hot key was last touched at %d, want 1: its dropped items were not credited", got)
	}
	// The slot is the newcomer's now; its next batch is grouped through
	// it and, the key having no hint yet (flat Θ, an HLL register still
	// 0), not filtered.
	st := tab.Stats()
	w.UpdateKeyedBatch(repeatKey(other, nOther), dead[nHot+nOther:])
	if !bytes.Equal(keyBytes(t, tab, other), f.fresh(t, other, dead[nHot:])) {
		t.Fatalf("the newcomer is not a key that saw its %d items", 2*nOther)
	}
	if now := tab.Stats(); now.CacheHits != st.CacheHits+1 || now.Prefiltered != st.Prefiltered {
		t.Fatalf("the newcomer's second batch: %d cache hits, %d dropped; want 1, 0", now.CacheHits-st.CacheHits, now.Prefiltered-st.Prefiltered)
	}
}

// TestPrefilterHLLExact: two writers, each reusing one handle, feed
// several keys far past m·ln m distinct items each. HLL's filter is
// exact: after Drain every key's registers are byte for byte those of a
// sequential sketch fed all of the key's items, so the writers dropped
// only items that could raise no register. And they dropped more than
// half of what they sent, which a filter that also kept the items whose
// rank equals the register floor would not.
func TestPrefilterHLLExact(t *testing.T) {
	const p, nKeys, perKey, chunk = 8, 4, 10_000, 1024
	tab := NewHLL(HLLConfig[uint64]{Table: Config[uint64]{Writers: 2, Shards: 4}, Precision: p})
	defer tab.Close()
	eng := tab.Engine().(*hll.Engine)
	// Writer wi sends its half of every key's items, the keys
	// interleaved within each batch.
	items := func(wi int) (keys, vals []uint64) {
		for i := 0; i < perKey/2; i++ {
			for k := uint64(0); k < nKeys; k++ {
				keys = append(keys, k)
				vals = append(vals, uint64(wi)<<40|k<<32|uint64(i))
			}
		}
		return keys, vals
	}
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			keys, vals := items(wi)
			for off := 0; off < len(keys); off += chunk {
				w.UpdateKeyedBatch(keys[off:off+chunk], vals[off:off+chunk])
			}
		}(wi)
	}
	wg.Wait()
	seq := make([]*hll.Sketch, nKeys)
	for k := range seq {
		seq[k] = hll.NewSeeded(p, eng.Seed())
	}
	for wi := 0; wi < 2; wi++ {
		keys, vals := items(wi)
		for i, k := range keys {
			seq[k].UpdateHash(eng.HashValue(vals[i]))
		}
	}
	for k := uint64(0); k < nKeys; k++ {
		want, err := seq[k].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(keyBytes(t, tab.Table, k), want) {
			t.Errorf("key %d: registers differ from a sequential sketch fed every item", k)
		}
	}
	sent := int64(nKeys * perKey)
	if st := tab.Stats(); 2*st.Prefiltered <= sent {
		t.Fatalf("%d of %d items prefiltered (%.2f), want more than half", st.Prefiltered, sent, float64(st.Prefiltered)/float64(sent))
	} else {
		t.Logf("%d of %d items prefiltered (%.2f)", st.Prefiltered, sent, float64(st.Prefiltered)/float64(sent))
	}
}
