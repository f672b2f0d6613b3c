package table

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/relax"
	"github.com/fcds/fcds/internal/theta"
)

// The tests here pin the flat → concurrent boundary of a Θ table key
// where users call it. All tables are in exact mode (K far above every
// count), so an estimate is a distinct count and can be compared
// exactly; MaxError 0.1 puts the eager limit at 2/e² = 200 updates.
const flatLimit = 200

func flatTable(writers int, tcfg Config[uint64]) *ThetaTable[uint64] {
	tcfg.Writers = writers
	if tcfg.Shards == 0 {
		tcfg.Shards = 4
	}
	return NewTheta(ThetaConfig[uint64]{Table: tcfg, K: 4096, MaxError: 0.1, BufferSize: 4})
}

// referenceCompact is the marshalled compact of a standalone concurrent
// sketch fed the same items: what a flat key's compact must equal byte
// for byte.
func referenceCompact(t *testing.T, items []uint64) []byte {
	t.Helper()
	c := theta.NewConcurrent(theta.ConcurrentConfig{K: 4096, Writers: 1, MaxError: 1})
	defer c.Close()
	w := c.Writer(0)
	w.UpdateUint64Batch(items)
	w.Flush()
	b, err := c.Compact().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// itemsOf returns n distinct items of one key.
func itemsOf(key uint64, n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = key<<32 | uint64(i)
	}
	return vs
}

// TestFlatKeyExactThenRelaxed: per key, every Estimate issued after an
// update call returns equals the exact distinct count while the key is
// flat; across and after materialization it is monotone and misses at
// most r = 2·N·b, and a Drain makes it exact again. Each run resends
// one earlier item, so duplicates inside the stream count once while
// the applied-update count that ends the flat phase counts them all.
func TestFlatKeyExactThenRelaxed(t *testing.T) {
	tab := flatTable(2, Config[uint64]{})
	defer tab.Close()
	r := tab.Relaxation()
	if r != 2*2*4 {
		t.Fatalf("Relaxation() = %d, want 16", r)
	}
	w := tab.Writer(0)
	past := 0 // keys pushed past the limit so far
	for key, run := range []int{1, 2, 17, 64} {
		key := uint64(key)
		var applied, distinct int // distinct: items 0..distinct-1 of the key were sent
		prev := 0.0
		for applied < 2*flatLimit {
			if run == 1 {
				w.UpdateKeyed(key, key<<32|uint64(distinct))
				distinct++
			} else {
				ks, vs := make([]uint64, run), make([]uint64, run)
				for i := range ks {
					ks[i] = key
				}
				vs[0] = key << 32 // item 0 again, in every run
				distinct = max(distinct, 1)
				for i := 1; i < run; i++ {
					vs[i] = key<<32 | uint64(distinct)
					distinct++
				}
				w.UpdateKeyedBatch(ks, vs)
			}
			applied += run
			est, ok := tab.Estimate(key)
			if !ok {
				t.Fatalf("key %d missing", key)
			}
			switch flat := applied < flatLimit; {
			case flat && est != float64(distinct):
				t.Fatalf("key %d flat at %d applied: estimate %v, want exactly %d", key, applied, est, distinct)
			case est < prev || est > float64(distinct) || est < float64(distinct-r):
				t.Fatalf("key %d at %d applied: estimate %v, previous %v, want within [%d, %d]", key, applied, est, prev, distinct-r, distinct)
			}
			prev = est
			if applied < flatLimit && tab.Pool().Sketches() != int64(past) {
				t.Fatalf("key %d attached to the pool at %d applied updates, limit %d", key, applied, flatLimit)
			}
		}
		past++
		if got := tab.Pool().Sketches(); got != int64(past) {
			t.Fatalf("pool serves %d sketches after %d keys passed the limit", got, past)
		}
		tab.Drain()
		if est, _ := tab.Estimate(key); est != float64(distinct) {
			t.Fatalf("key %d after Drain: estimate %v, want %d", key, est, distinct)
		}
	}
}

// TestFlatKeyWritersRaceThroughLimit is the paper's guarantee at the
// table layer: N writers race one key through the eager limit, each
// querying it after every update call of its own, beside a reader that
// only queries; the whole history is recorded, and every query must lie
// in [C(q) − r, P(q)] with r = 2·N·b. After Drain no item is lost or
// counted twice. Run under -race -count=10.
func TestFlatKeyWritersRaceThroughLimit(t *testing.T) {
	const writers, perWriter, key = 4, 120, uint64(42) // 480 updates against a limit of 200
	tab := flatTable(writers, Config[uint64]{})
	defer tab.Close()
	rec := relax.NewRecorder()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	query := func() {
		inv := rec.Begin()
		if est, ok := tab.Estimate(key); ok {
			rec.EndQuery(est, inv)
		}
	}
	go func() {
		defer close(readerDone)
		// Bounded: CheckCounting is quadratic in the number of queries.
		for n := 0; n < 1000; n++ {
			select {
			case <-stop:
				return
			default:
			}
			query()
			runtime.Gosched()
		}
	}()
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			ks := []uint64{key, key, key}
			for i := 0; i < perWriter; {
				inv := rec.Begin()
				if i%2 == 0 {
					w.UpdateKeyed(key, uint64(wi*perWriter+i))
					rec.EndUpdate(wi, uint64(wi*perWriter+i), inv)
					query()
					i++
					continue
				}
				n := min(3, perWriter-i)
				vs := make([]uint64, n)
				for j := range vs {
					vs[j] = uint64(wi*perWriter + i + j)
				}
				w.UpdateKeyedBatch(ks[:n], vs)
				for _, v := range vs {
					rec.EndUpdate(wi, v, inv)
				}
				query()
				i += n
			}
		}(wi)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if err := relax.CheckCounting(rec.History(), tab.Relaxation()); err != nil {
		t.Fatal(err)
	}
	tab.Drain()
	if est, _ := tab.Estimate(key); est != writers*perWriter {
		t.Fatalf("estimate after Drain = %v, want %d", est, writers*perWriter)
	}
	if got := tab.Pool().Sketches(); got != 1 {
		t.Fatalf("pool serves %d sketches, want the one key past the limit", got)
	}
}

// TestFlatKeyEvictionSpill: flat keys leave through cap and TTL
// eviction with their full state, the spill byte-identical to the
// compact of a concurrent sketch fed the same items.
func TestFlatKeyEvictionSpill(t *testing.T) {
	const perKey = 20
	now := int64(1)
	spilled := map[uint64][]byte{}
	tab := flatTable(1, Config[uint64]{
		Shards: 1, MaxKeys: 4, TTL: time.Second,
		OnEvict: func(k uint64, snap []byte) { spilled[k] = snap },
	})
	defer tab.Close()
	tab.now = func() int64 { now++; return now }
	w := tab.Writer(0)
	for key := uint64(0); key < 8; key++ {
		for _, v := range itemsOf(key, perKey) {
			w.UpdateKeyed(key, v)
		}
	}
	if len(spilled) != 4 || tab.Keys() != 4 {
		t.Fatalf("%d keys spilled by the cap, %d live; want 4 and 4", len(spilled), tab.Keys())
	}
	now += 2 * time.Second.Nanoseconds()
	if n := tab.EvictExpired(); n != 4 {
		t.Fatalf("EvictExpired() = %d, want 4", n)
	}
	if got := tab.Pool().Sketches(); got != 0 {
		t.Fatalf("pool served %d sketches; every key should have stayed flat", got)
	}
	for key := uint64(0); key < 8; key++ {
		if !bytes.Equal(spilled[key], referenceCompact(t, itemsOf(key, perKey))) {
			t.Errorf("key %d: spill differs from a concurrent sketch's compact of the same items", key)
		}
	}
}

// TestFlatKeySnapshotMerge: flat keys survive SnapshotAppend →
// UnmarshalThetaSnapshot → Merge, per key byte-identical to a
// concurrent sketch fed the union of the two tables' items.
func TestFlatKeySnapshotMerge(t *testing.T) {
	a, b := flatTable(1, Config[uint64]{}), flatTable(1, Config[uint64]{})
	defer a.Close()
	defer b.Close()
	wa, wb := a.Writer(0), b.Writer(0)
	for key := uint64(0); key < 15; key++ {
		items := itemsOf(key, 30)
		ks := make([]uint64, 20)
		for i := range ks {
			ks[i] = key
		}
		if key < 10 {
			wa.UpdateKeyedBatch(ks, items[:20])
		}
		if key >= 5 {
			wb.UpdateKeyedBatch(ks, items[10:]) // keys 5..9: items 10..19 in both tables
		}
	}
	if got := a.Pool().Sketches() + b.Pool().Sketches(); got != 0 {
		t.Fatalf("pools serve %d sketches; every key should be flat", got)
	}
	var snaps [2]*TableSnapshot[uint64, *theta.Compact]
	for i, tab := range []*ThetaTable[uint64]{a, b} {
		data, err := tab.SnapshotAppend(nil)
		if err != nil {
			t.Fatal(err)
		}
		if snaps[i], err = UnmarshalThetaSnapshot[uint64](data); err != nil {
			t.Fatal(err)
		}
	}
	if err := snaps[0].Merge(snaps[1]); err != nil {
		t.Fatal(err)
	}
	if snaps[0].Len() != 15 {
		t.Fatalf("merged snapshot holds %d keys, want 15", snaps[0].Len())
	}
	for key := uint64(0); key < 15; key++ {
		want := itemsOf(key, 30)
		switch {
		case key < 5:
			want = want[:20]
		case key >= 10:
			want = want[10:]
		}
		c, ok := snaps[0].Get(key)
		if !ok {
			t.Fatalf("key %d missing from the merged snapshot", key)
		}
		got, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceCompact(t, want)) {
			t.Errorf("key %d: merged compact (estimate %v) differs from a concurrent sketch's compact of the %d items", key, c.Estimate(), len(want))
		}
	}
}

// TestFlatUpdateKeyedZeroAllocs: a single-item update of a flat key
// allocates nothing. The key and its writer-cache slot exist after the
// warm-up call, and every call repeats one value, so the flat set does
// not grow either; the key stays far below flatLimit.
func TestFlatUpdateKeyedZeroAllocs(t *testing.T) {
	tab := flatTable(1, Config[uint64]{})
	defer tab.Close()
	w := tab.Writer(0)
	w.UpdateKeyed(7, 42)
	if avg := testing.AllocsPerRun(50, func() { w.UpdateKeyed(7, 42) }); avg != 0 {
		t.Errorf("UpdateKeyed on a flat key allocates %.1f allocs/op, want 0", avg)
	}
	if tab.Pool().Sketches() != 0 {
		t.Fatal("the key left the flat phase: the test measured the concurrent path")
	}
}
