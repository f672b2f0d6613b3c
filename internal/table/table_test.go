package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/theta"
)

// keyOf deterministically names test keys.
func keyOf(i int) string { return fmt.Sprintf("tenant-%d", i) }

// TestThetaTableExactSmallKeys checks per-key exactness for small
// per-key streams after a drain: with the eager phase on, a small
// key's sketch is in exact mode, so the estimate equals the true
// per-key cardinality.
func TestThetaTableExactSmallKeys(t *testing.T) {
	tab := NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 16}})
	defer tab.Close()
	w := tab.Writer(0)
	const keys, perKey = 100, 50
	var ks []string
	var vs []uint64
	for i := 0; i < keys; i++ {
		for j := 0; j < perKey; j++ {
			ks = append(ks, keyOf(i))
			vs = append(vs, uint64(i*perKey+j))
		}
	}
	w.UpdateKeyedBatch(ks, vs)
	tab.Drain()
	if got := tab.Keys(); got != keys {
		t.Fatalf("Keys() = %d, want %d", got, keys)
	}
	for i := 0; i < keys; i++ {
		est, ok := tab.Estimate(keyOf(i))
		if !ok {
			t.Fatalf("key %q missing", keyOf(i))
		}
		if est != perKey {
			t.Errorf("key %q estimate = %v, want exactly %d (exact mode)", keyOf(i), est, perKey)
		}
	}
	if _, ok := tab.Estimate("never-seen"); ok {
		t.Error("Estimate on unknown key reported ok")
	}
}

// TestThetaTableErrorBoundLargeKeys ingests estimation-mode streams
// into many keys concurrently and checks each per-key estimate is
// within the sketch's statistical error (5 RSE) of the truth.
func TestThetaTableErrorBoundLargeKeys(t *testing.T) {
	const (
		writers = 4
		keys    = 20
		perKey  = 20000
		k       = 1024
	)
	tab := NewTheta(ThetaConfig[string]{
		Table: Config[string]{Writers: writers, Shards: 16},
		K:     k,
	})
	defer tab.Close()
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			ks := make([]string, 0, 256)
			vs := make([]uint64, 0, 256)
			// Writer wi ingests its disjoint quarter of every key's
			// stream, interleaving keys within each batch.
			for j := wi * perKey / writers; j < (wi+1)*perKey/writers; j++ {
				for i := 0; i < keys; i++ {
					ks = append(ks, keyOf(i))
					vs = append(vs, uint64(i*perKey+j))
					if len(ks) == cap(ks) {
						w.UpdateKeyedBatch(ks, vs)
						ks, vs = ks[:0], vs[:0]
					}
				}
			}
			w.UpdateKeyedBatch(ks, vs)
		}(wi)
	}
	wg.Wait()
	tab.Drain()
	rse := 1 / math.Sqrt(k-2)
	for i := 0; i < keys; i++ {
		est, ok := tab.Estimate(keyOf(i))
		if !ok {
			t.Fatalf("key %q missing", keyOf(i))
		}
		if re := math.Abs(est-perKey) / perKey; re > 5*rse {
			t.Errorf("key %q estimate = %.0f, want %d ±%.1f%% (got %.1f%%)",
				keyOf(i), est, perKey, 5*rse*100, re*100)
		}
	}
}

// TestTableGoroutineCountIndependentOfKeys pins the acceptance
// criterion: a table with 100k keys runs on one fixed propagator pool,
// so the goroutine count does not grow with the key count. A key still
// in its eager phase is flat and not attached to the pool at all;
// every key is attached once it is pushed past the eager limit.
func TestTableGoroutineCountIndependentOfKeys(t *testing.T) {
	const eagerLimit = 8 // 2/e² at MaxError 0.5
	pool := core.NewPropagatorPool(4)
	defer pool.Close()
	tab := NewTheta(ThetaConfig[uint64]{
		Table:    Config[uint64]{Writers: 1, Shards: 1024, Pool: pool},
		MaxError: 0.5,
	})
	defer tab.Close()
	w := tab.Writer(0)
	const keys = 100_000
	base := runtime.NumGoroutine()
	ks := make([]uint64, 0, 1024)
	vs := make([]uint64, 0, 1024)
	// pass sends one more update to every key.
	pass := func(round int) {
		for i := 0; i < keys; i++ {
			ks = append(ks, uint64(i))
			vs = append(vs, uint64(round*keys+i))
			if len(ks) == cap(ks) {
				w.UpdateKeyedBatch(ks, vs)
				ks, vs = ks[:0], vs[:0]
			}
		}
		w.UpdateKeyedBatch(ks, vs)
		ks, vs = ks[:0], vs[:0]
	}
	check := func() {
		t.Helper()
		if got := tab.Keys(); got != keys {
			t.Fatalf("Keys() = %d, want %d", got, keys)
		}
		if got := runtime.NumGoroutine(); got > base+8 {
			t.Fatalf("goroutines grew from %d to %d across %d keys; want growth independent of key count", base, got, keys)
		}
	}
	pass(0)
	check()
	if got := tab.Pool().Sketches(); got > keys {
		t.Errorf("pool serves %d sketches, want <= %d", got, keys)
	}
	for r := 1; r < eagerLimit; r++ {
		pass(r)
	}
	check()
	if got := tab.Pool().Sketches(); got != keys {
		t.Errorf("pool serves %d sketches after every key passed the eager limit, want %d", got, keys)
	}
}

// TestThetaTablePerItemMatchesBatch checks the keyed per-item path and
// the keyed batch path produce identical exact-mode results.
func TestThetaTablePerItemMatchesBatch(t *testing.T) {
	a := NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 4}})
	b := NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 4}})
	defer a.Close()
	defer b.Close()
	wa, wb := a.Writer(0), b.Writer(0)
	var ks []string
	var vs []uint64
	for i := 0; i < 1000; i++ {
		k := keyOf(i % 7)
		v := uint64(i)
		wa.UpdateKeyed(k, v)
		ks = append(ks, k)
		vs = append(vs, v)
	}
	wb.UpdateKeyedBatch(ks, vs)
	a.Drain()
	b.Drain()
	for i := 0; i < 7; i++ {
		ea, _ := a.Estimate(keyOf(i))
		eb, _ := b.Estimate(keyOf(i))
		if ea != eb {
			t.Errorf("key %q: per-item %v != batch %v", keyOf(i), ea, eb)
		}
	}
}

// TestTableRelaxationBound checks a per-key query without any flush
// misses at most r = 2·N·b updates (Theorem 1, applied per key).
func TestTableRelaxationBound(t *testing.T) {
	const bufferSize = 8
	tab := NewTheta(ThetaConfig[string]{
		Table:      Config[string]{Writers: 1, Shards: 4},
		BufferSize: bufferSize,
		MaxError:   1, // no eager phase: every update goes through buffers
	})
	defer tab.Close()
	w := tab.Writer(0)
	const n = 200
	for i := 0; i < n; i++ {
		w.UpdateKeyed("k", uint64(i))
	}
	r := tab.Relaxation()
	if r != 2*bufferSize {
		t.Fatalf("Relaxation() = %d, want %d", r, 2*bufferSize)
	}
	// The propagator may still be mid-merge; poll briefly for the
	// guaranteed floor instead of flushing (which would defeat the
	// point of the test).
	deadline := time.Now().Add(5 * time.Second)
	for {
		est, _ := tab.Estimate("k")
		if est >= float64(n-r) && est <= float64(n) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("estimate = %v, want within [%d, %d]", est, n-r, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTableCapEvictionSpills caps the table and checks evicted keys
// spill valid serialized snapshots through OnEvict.
func TestTableCapEvictionSpills(t *testing.T) {
	var mu sync.Mutex
	spilled := map[string]float64{}
	tab := NewTheta(ThetaConfig[string]{
		Table: Config[string]{
			Writers: 1,
			Shards:  1, // single shard makes the LRU order deterministic
			MaxKeys: 10,
			OnEvict: func(k string, snap []byte) {
				c, err := theta.UnmarshalCompact(snap)
				if err != nil {
					t.Errorf("evicted key %q: bad spill: %v", k, err)
					return
				}
				mu.Lock()
				spilled[k] = c.Estimate()
				mu.Unlock()
			},
		},
	})
	defer tab.Close()
	w := tab.Writer(0)
	const keys, perKey = 30, 20
	for i := 0; i < keys; i++ {
		for j := 0; j < perKey; j++ {
			w.UpdateKeyed(keyOf(i), uint64(i*perKey+j))
		}
	}
	if got := tab.Keys(); got > 10 {
		t.Errorf("Keys() = %d, want <= 10 (cap)", got)
	}
	if got := tab.Evictions(); got != keys-10 {
		t.Errorf("Evictions() = %d, want %d", got, keys-10)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(spilled) != keys-10 {
		t.Fatalf("spilled %d keys, want %d", len(spilled), keys-10)
	}
	// Eviction flushes before spilling, so every snapshot is exact.
	for k, est := range spilled {
		if est != perKey {
			t.Errorf("spilled key %q estimate = %v, want %d", k, est, perKey)
		}
	}
	// The most recently updated keys survive (LRU within the shard).
	for i := keys - 10; i < keys; i++ {
		if _, ok := tab.Estimate(keyOf(i)); !ok {
			t.Errorf("recently updated key %q was evicted", keyOf(i))
		}
	}
}

// TestTableTTLEviction advances a fake clock past the TTL and checks
// idle keys are spilled while fresh ones survive.
func TestTableTTLEviction(t *testing.T) {
	var now int64 = 1 // deterministic fake clock (UnixNano)
	var evicted []uint64
	tab := NewHLL(HLLConfig[uint64]{
		Table: Config[uint64]{
			Writers: 1,
			Shards:  4,
			TTL:     time.Second,
			OnEvict: func(k uint64, snap []byte) { evicted = append(evicted, k) },
		},
	})
	defer tab.Close()
	tab.now = func() int64 { return now }
	w := tab.Writer(0)
	for k := uint64(0); k < 10; k++ {
		w.UpdateKeyed(k, k)
	}
	now += time.Second.Nanoseconds() + 1
	for k := uint64(0); k < 3; k++ {
		w.UpdateKeyed(k, k+100) // refresh keys 0..2
	}
	if n := tab.EvictExpired(); n != 7 {
		t.Fatalf("EvictExpired() = %d, want 7", n)
	}
	if got := tab.Keys(); got != 3 {
		t.Errorf("Keys() = %d, want 3", got)
	}
	if len(evicted) != 7 {
		t.Errorf("OnEvict saw %d keys, want 7", len(evicted))
	}
	for k := uint64(0); k < 3; k++ {
		if _, ok := tab.Estimate(k); !ok {
			t.Errorf("refreshed key %d was evicted", k)
		}
	}
}

// TestThetaTableRollup checks the all-keys rollup collapses duplicates
// across keys.
func TestThetaTableRollup(t *testing.T) {
	tab := NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 4}})
	defer tab.Close()
	w := tab.Writer(0)
	// Three keys over the same 100 items plus one key with 100 fresh
	// ones: 200 uniques total.
	for i := 0; i < 100; i++ {
		w.UpdateKeyed("a", uint64(i))
		w.UpdateKeyed("b", uint64(i))
		w.UpdateKeyed("c", uint64(i))
		w.UpdateKeyed("d", uint64(1000+i))
	}
	tab.Drain()
	if est := tab.Rollup().Estimate(); est != 200 {
		t.Errorf("rollup estimate = %v, want exactly 200 (exact mode)", est)
	}
}

// TestTableSnapshotMergeRoundTrip simulates distributed aggregation:
// two nodes ingest disjoint halves of overlapping per-key streams,
// snapshot, serialize, merge, and the merged per-key estimates match
// the union.
func TestTableSnapshotMergeRoundTrip(t *testing.T) {
	mk := func() *ThetaTable[string] {
		return NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 8}})
	}
	node1, node2 := mk(), mk()
	defer node1.Close()
	defer node2.Close()
	w1, w2 := node1.Writer(0), node2.Writer(0)
	for i := 0; i < 100; i++ {
		w1.UpdateKeyed("x", uint64(i))      // x: 0..99
		w2.UpdateKeyed("x", uint64(50+i))   // x: 50..149 → union 150
		w1.UpdateKeyed("y", uint64(i))      // y only on node1
		w2.UpdateKeyed("z", uint64(1000+i)) // z only on node2
	}
	node1.Drain()
	node2.Drain()
	b1, err := node1.SnapshotBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := node2.SnapshotBinary()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := UnmarshalThetaSnapshot[string](b1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := UnmarshalThetaSnapshot[string](b2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Merge(s2); err != nil {
		t.Fatal(err)
	}
	if s1.Len() != 3 {
		t.Fatalf("merged snapshot has %d keys, want 3", s1.Len())
	}
	want := map[string]float64{"x": 150, "y": 100, "z": 100}
	for k, wantEst := range want {
		c, ok := s1.Get(k)
		if !ok {
			t.Fatalf("merged snapshot missing key %q", k)
		}
		if c.Estimate() != wantEst {
			t.Errorf("merged key %q estimate = %v, want %v", k, c.Estimate(), wantEst)
		}
	}
	// The merged snapshot serializes and parses again.
	b3, err := s1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalThetaSnapshot[string](b3); err != nil {
		t.Fatal(err)
	}
	// Key-type and kind mismatches are rejected, not misparsed.
	if _, err := UnmarshalThetaSnapshot[uint64](b3); err == nil {
		t.Error("uint64-keyed parse of string-keyed snapshot succeeded")
	}
	if _, err := UnmarshalHLLSnapshot[string](b3); err == nil {
		t.Error("HLL parse of theta snapshot succeeded")
	}
}

// TestQuantilesTable exercises the quantiles kind end to end: per-key
// medians, rollup, snapshot round trip.
func TestQuantilesTable(t *testing.T) {
	tab := NewQuantiles(QuantilesConfig[string]{Table: Config[string]{Writers: 2, Shards: 8}, K: 64})
	defer tab.Close()
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			ks := make([]string, 0, 128)
			vs := make([]float64, 0, 128)
			for i := 0; i < 5000; i++ {
				// key "fast" centred at ~100, key "slow" at ~1000.
				ks = append(ks, "fast", "slow")
				vs = append(vs, 100+float64(i%10), 1000+float64(i%100))
				if len(ks)+2 > cap(ks) {
					w.UpdateKeyedBatch(ks, vs)
					ks, vs = ks[:0], vs[:0]
				}
			}
			w.UpdateKeyedBatch(ks, vs)
		}(wi)
	}
	wg.Wait()
	tab.Drain()
	if med, ok := tab.Quantile("fast", 0.5); !ok || med < 100 || med > 110 {
		t.Errorf("fast median = %v (ok=%v), want ~100-110", med, ok)
	}
	if med, ok := tab.Quantile("slow", 0.5); !ok || med < 1000 || med > 1100 {
		t.Errorf("slow median = %v (ok=%v), want ~1000-1100", med, ok)
	}
	roll := tab.Rollup()
	if roll.N() != 20000 {
		t.Errorf("rollup N = %d, want 20000", roll.N())
	}
	data, err := tab.SnapshotBinary()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalQuantilesSnapshot[string](data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 2 {
		t.Errorf("snapshot keys = %d, want 2", snap.Len())
	}
}

// TestHLLTable exercises the HLL kind: per-key estimates within RSE,
// rollup, snapshot merge.
func TestHLLTable(t *testing.T) {
	tab := NewHLL(HLLConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 8}, Precision: 12})
	defer tab.Close()
	w := tab.Writer(0)
	// perKey is well above the 2.5·2^p linear-counting crossover, where
	// the raw HLL estimator's bias is small.
	const keys, perKey = 10, 30000
	ks := make([]uint64, 0, 1000)
	vs := make([]uint64, 0, 1000)
	for i := 0; i < keys; i++ {
		for j := 0; j < perKey; j++ {
			ks = append(ks, uint64(i))
			vs = append(vs, uint64(i*perKey+j))
			if len(ks) == cap(ks) {
				w.UpdateKeyedBatch(ks, vs)
				ks, vs = ks[:0], vs[:0]
			}
		}
	}
	w.UpdateKeyedBatch(ks, vs)
	tab.Drain()
	for i := uint64(0); i < keys; i++ {
		est, ok := tab.Estimate(i)
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		if re := math.Abs(est-perKey) / perKey; re > 0.05 {
			t.Errorf("key %d estimate = %.0f, want %d ±5%%", i, est, perKey)
		}
	}
	roll := tab.Rollup().Estimate()
	if re := math.Abs(roll-keys*perKey) / (keys * perKey); re > 0.05 {
		t.Errorf("rollup estimate = %.0f, want %d ±5%%", roll, keys*perKey)
	}
	data, err := tab.SnapshotBinary()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalHLLSnapshot[uint64](data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != keys {
		t.Errorf("snapshot keys = %d, want %d", snap.Len(), keys)
	}
}

// TestTableConcurrentIngestQueryEvict hammers a capped table from
// writers, queriers and an evictor at once; the race detector and the
// table's internal invariants are the assertions.
func TestTableConcurrentIngestQueryEvict(t *testing.T) {
	const writers = 4
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{
			Writers: writers,
			Shards:  16,
			MaxKeys: 64,
			TTL:     time.Millisecond,
			OnEvict: func(uint64, []byte) {},
		},
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			ks := make([]uint64, 0, 64)
			vs := make([]uint64, 0, 64)
			for round := 0; round < 200; round++ {
				ks, vs = ks[:0], vs[:0]
				for i := 0; i < 64; i++ {
					ks = append(ks, uint64((round*7+i)%200))
					vs = append(vs, uint64(round*64+i))
				}
				w.UpdateKeyedBatch(ks, vs)
			}
		}(wi)
	}
	wg.Add(2)
	go func() { // querier
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := uint64(0); k < 200; k += 17 {
				tab.Estimate(k)
			}
			tab.Rollup()
		}
	}()
	go func() { // TTL evictor
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tab.EvictExpired()
			time.Sleep(time.Millisecond)
		}
	}()
	// Wait for the writers (first `writers` goroutines), then stop the
	// background query/evict loops.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	<-done
	if got := tab.Keys(); got > 64+16 {
		t.Errorf("Keys() = %d, want near cap 64", got)
	}
	tab.Close()
}

// TestTableExternalPool shares one pool across two tables and a
// standalone sketch; closing the tables leaves the pool serving.
func TestTableExternalPool(t *testing.T) {
	pool := core.NewPropagatorPool(2)
	defer pool.Close()
	t1 := NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 4, Pool: pool}})
	t2 := NewHLL(HLLConfig[string]{Table: Config[string]{Writers: 1, Shards: 4, Pool: pool}})
	w1, w2 := t1.Writer(0), t2.Writer(0)
	for i := 0; i < 1000; i++ {
		w1.UpdateKeyed(keyOf(i%5), uint64(i))
		w2.UpdateKeyed(keyOf(i%5), uint64(i))
	}
	t1.Drain()
	t2.Drain()
	if est, _ := t1.Estimate(keyOf(0)); est != 200 {
		t.Errorf("theta key estimate = %v, want 200", est)
	}
	t1.Close()
	// Pool still serves t2 after t1 closes.
	for i := 0; i < 1000; i++ {
		w2.UpdateKeyed(keyOf(7), uint64(i))
	}
	t2.Drain()
	if est, _ := t2.Estimate(keyOf(7)); est < 900 || est > 1100 {
		t.Errorf("hll key estimate after sibling close = %v, want ~1000", est)
	}
	t2.Close()
	if n := pool.Sketches(); n != 0 {
		t.Errorf("pool reports %d sketches after both tables closed, want 0", n)
	}
}

// TestTableWriterScratchReuse checks steady-state keyed batches on
// existing keys do not allocate per item (grouping scratch, entry
// slices and sketch scratch are all reused).
func TestTableWriterScratchReuse(t *testing.T) {
	tab := NewTheta(ThetaConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 16}, MaxError: 1})
	defer tab.Close()
	w := tab.Writer(0)
	const batch = 512
	ks := make([]uint64, batch)
	vs := make([]uint64, batch)
	fill := func(round int) {
		for i := range ks {
			ks[i] = uint64(i % 32)
			vs[i] = uint64(round*batch + i)
		}
	}
	fill(0)
	w.UpdateKeyedBatch(ks, vs) // warm up: create keys, grow scratch
	round := 1
	avg := testing.AllocsPerRun(50, func() {
		fill(round)
		round++
		w.UpdateKeyedBatch(ks, vs)
	})
	// A handful of allocations per 512-item batch is acceptable
	// (map-iteration internals, occasional buffer growth); per-item
	// allocation is not.
	if avg > 16 {
		t.Errorf("steady-state keyed batch allocates %.1f per call, want <= 16", avg)
	}
}

// TestSnapshotCorruptParamRejected flips the header's sketch parameter
// to an invalid value: Unmarshal must fail with an error rather than
// letting a later Merge panic inside a sketch constructor.
func TestSnapshotCorruptParamRejected(t *testing.T) {
	tab := NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 4}})
	defer tab.Close()
	w := tab.Writer(0)
	w.UpdateKeyed("k", 1)
	tab.Drain()
	data, err := tab.SnapshotBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[8], bad[9], bad[10], bad[11] = 7, 0, 0, 0 // param = 7: not a power of two
	if _, err := UnmarshalThetaSnapshot[string](bad); err == nil {
		t.Fatal("corrupt param 7 accepted; Merge would panic in NewUnionSeeded")
	}
	bad[8] = 0 // param = 0
	if _, err := UnmarshalThetaSnapshot[string](bad); err == nil {
		t.Fatal("corrupt param 0 accepted")
	}
}

// TestSnapshotCountBeyondBody: the header's key count is the sender's
// claim. A count far larger than the body can hold must fail as
// corrupt without sizing the entries map by it (a 4-billion-entry map
// would be tens of GB); a truthful count still round-trips.
func TestSnapshotCountBeyondBody(t *testing.T) {
	tab := NewTheta(ThetaConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 4}})
	defer tab.Close()
	w := tab.Writer(0)
	for key := uint64(0); key < 100; key++ {
		w.UpdateKeyed(key, key)
	}
	data, err := tab.SnapshotBinary()
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := UnmarshalThetaSnapshot[uint64](data); err != nil || snap.Len() != 100 {
		t.Fatalf("honest snapshot: %v, %d keys; want 100", err, snap.Len())
	}
	bad := bytes.Clone(data)
	binary.LittleEndian.PutUint32(bad[12:16], 0xFFFFFFFF)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = UnmarshalThetaSnapshot[uint64](bad)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapCorrupt) {
		t.Fatalf("count 2^32-1 over a 100-entry body: err = %v, want ErrSnapCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the snapshot allocated %d bytes; the map was sized by the claimed count", grew)
	}
}

// TestCompactKeyAllKinds checks the per-key compact accessor on every
// table kind.
func TestCompactKeyAllKinds(t *testing.T) {
	th := NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: 1, Shards: 4}})
	defer th.Close()
	qt := NewQuantiles(QuantilesConfig[string]{Table: Config[string]{Writers: 1, Shards: 4}})
	defer qt.Close()
	hl := NewHLL(HLLConfig[string]{Table: Config[string]{Writers: 1, Shards: 4}})
	defer hl.Close()
	tw, qw, hw := th.Writer(0), qt.Writer(0), hl.Writer(0)
	for i := 0; i < 100; i++ {
		tw.UpdateKeyed("k", uint64(i))
		qw.UpdateKeyed("k", float64(i))
		hw.UpdateKeyed("k", uint64(i))
	}
	th.Drain()
	qt.Drain()
	hl.Drain()
	if c, ok := th.CompactKey("k"); !ok || c.Estimate() != 100 {
		t.Errorf("theta CompactKey = %v, %v; want 100, true", c, ok)
	}
	if c, ok := qt.CompactKey("k"); !ok || c.N() != 100 {
		t.Errorf("quantiles CompactKey N = %v, %v; want 100, true", c, ok)
	}
	if c, ok := hl.CompactKey("k"); !ok || c.Estimate() < 90 || c.Estimate() > 110 {
		t.Errorf("hll CompactKey = %v, %v; want ~100, true", c, ok)
	}
	if _, ok := th.CompactKey("missing"); ok {
		t.Error("CompactKey on missing key reported ok")
	}
}

// TestTableConfigValidationAtConstruction checks invalid per-key
// sketch parameters panic at New*, not on the first update (which
// would panic under a held shard write-lock).
func TestTableConfigValidationAtConstruction(t *testing.T) {
	for name, fn := range map[string]func(){
		"theta K not power of two": func() {
			NewTheta(ThetaConfig[string]{K: 100})
		},
		"theta K too small": func() {
			NewTheta(ThetaConfig[string]{K: 8})
		},
		"quantiles K not power of two": func() {
			NewQuantiles(QuantilesConfig[string]{K: 33})
		},
		"hll precision too large": func() {
			NewHLL(HLLConfig[string]{Precision: 19})
		},
		"shards not power of two": func() {
			NewTheta(ThetaConfig[string]{Table: Config[string]{Shards: 3}})
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

// TestTableParamFitsSnapshot: a table refuses, at construction, a
// parameter its own snapshots could not carry — quantiles K above what
// FCQS stores in 16 bits, Θ K above what the FCTB header admits — and
// the FCTB header refuses a quantiles parameter no FCQS compact can
// carry, even with no entries behind it.
func TestTableParamFitsSnapshot(t *testing.T) {
	for name, fn := range map[string]func(){
		"quantiles K 2^16": func() { NewQuantiles(QuantilesConfig[string]{K: 1 << 16}) },
		"theta K 2^27":     func() { NewTheta(ThetaConfig[uint64]{K: 1 << 27}) },
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
	img := []byte("FCTB")
	img = append(img, snapVersion, KindQuantiles, core.KeyString, 0)
	img = binary.LittleEndian.AppendUint32(img, 1<<16)
	img = binary.LittleEndian.AppendUint32(img, 0)
	if _, err := UnmarshalQuantilesSnapshot[string](img); !errors.Is(err, ErrSnapCorrupt) {
		t.Fatalf("empty image with quantiles parameter 2^16: err = %v, want ErrSnapCorrupt", err)
	}
}

// TestNegativeWritersRejected: a negative writer count panics at
// construction with a message that names it, not inside make.
func TestNegativeWritersRejected(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Writers must be at least 1") {
			t.Errorf("New with Writers -1 panicked with %q", msg)
		}
	}()
	NewTheta(ThetaConfig[string]{Table: Config[string]{Writers: -1}})
}
