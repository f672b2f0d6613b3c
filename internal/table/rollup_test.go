package table

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
	"github.com/fcds/fcds/internal/hll"
	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/theta"
)

// A rollup folds each key's live state into the union
// (EngineSketch.AddTo) instead of copying out a per-key compact. The
// tests below hold it to what a reader can see: the same bytes as a
// union of the snapshot's per-key compacts and as rollups had before
// they read keys in place (the sha256 pins), for every state a Θ key
// can be in; unchanged quantiles and HLL answers; a cost that does not
// grow with the key count; no race with writers and evictions.

// The sha256 of the marshalled rollups of the pinned Θ and HLL tables
// (pinStream), recorded when a rollup still merged one compact per key.
const (
	thetaRollupSHA256 = "a04c154c0eb22875cc701568cd9fdb76dbb622595f9819c73ebe7e8f53e1077c"
	hllRollupSHA256   = "bc1a4261511c76819940498ebbf8c291292475ef88b8bfb7ebbe1a7c9d005ed0"
)

// pinStream is the keyed input of the pinned tables: 80 keys, in runs
// of 10, 60, 2 000 and 9 000 distinct items by key mod 4, sent in
// 1 024-item batches through one writer, so that a table's state is a
// function of the input alone.
func pinStream(send func(keys, vals []uint64)) {
	var keys, vals []uint64
	for key := uint64(0); key < 80; key++ {
		for i := uint64(0); i < []uint64{10, 60, 2000, 9000}[key%4]; i++ {
			keys = append(keys, key)
			vals = append(vals, key<<32|i)
		}
	}
	for off := 0; off < len(keys); off += 1024 {
		end := min(off+1024, len(keys))
		send(keys[off:end], vals[off:end])
	}
}

// pinConfig is the pinned tables' configuration: one writer.
func pinConfig(degree int) Config[uint64] {
	return Config[uint64]{Writers: 1, Shards: 8, ReadParallelism: degree}
}

// pinTheta holds a Θ key in every state: flat (10 items; the eager limit
// 2/e² is 50), concurrent in exact mode (60), and in estimation mode
// (2 000 and 9 000).
func pinTheta(t *testing.T, degree int) *ThetaTable[uint64] {
	t.Helper()
	tab := NewTheta(ThetaConfig[uint64]{Table: pinConfig(degree), K: 64, MaxError: 0.2})
	pinStream(tab.Writer(0).UpdateKeyedBatch)
	tab.Drain()
	if flat := int64(tab.Keys()) - tab.Pool().Sketches(); flat != 20 {
		t.Fatalf("%d flat keys, want 20", flat)
	}
	return tab
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRollupInPlaceMatchesSnapshotUnion: at read degrees 1 and 4, a Θ
// rollup is byte for byte the union of the snapshot's per-key compacts,
// and the bytes rollups had when they merged those compacts themselves.
func TestRollupInPlaceMatchesSnapshotUnion(t *testing.T) {
	for _, degree := range []int{1, 4} {
		tab := pinTheta(t, degree)
		eng := tab.Engine()
		got, err := eng.MarshalCompact(tab.Rollup())
		if err != nil {
			t.Fatal(err)
		}
		agg := eng.NewAggregator()
		tab.Snapshot().ForEach(func(_ uint64, c *theta.Compact) {
			if err := agg.Add(c); err != nil {
				t.Fatal(err)
			}
		})
		want, err := eng.MarshalCompact(agg.Result())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("degree %d: rollup differs from the union of the snapshot's compacts", degree)
		}
		if sum := sha256Hex(got); sum != thetaRollupSHA256 {
			t.Errorf("degree %d: rollup sha256 %s, pinned %s", degree, sum, thetaRollupSHA256)
		}
		tab.Close()
	}
}

// TestRollupQuantilesHLLUnchanged: quantiles and HLL fold a key in as
// the compact it would snapshot, so their rollups answer as the union
// of the snapshot's compacts does — quantiles N/min/max (its merges
// draw coins in fold order), HLL registers byte for byte and as pinned.
func TestRollupQuantilesHLLUnchanged(t *testing.T) {
	for _, degree := range []int{1, 4} {
		q := NewQuantiles(QuantilesConfig[uint64]{Table: pinConfig(degree), K: 64})
		pinStream(func(keys, vals []uint64) {
			fs := make([]float64, len(vals))
			for i, v := range vals {
				fs[i] = float64(v % 100_003)
			}
			q.Writer(0).UpdateKeyedBatch(keys, fs)
		})
		q.Drain()
		qr := q.Rollup()
		qagg := q.Engine().NewAggregator()
		q.Snapshot().ForEach(func(_ uint64, c *quantiles.Sketch) { _ = qagg.Add(c) })
		qu := qagg.Result()
		if qr.N() != qu.N() || qr.Min() != qu.Min() || qr.Max() != qu.Max() {
			t.Errorf("degree %d: quantiles rollup N/min/max %d/%v/%v, snapshot union %d/%v/%v",
				degree, qr.N(), qr.Min(), qr.Max(), qu.N(), qu.Min(), qu.Max())
		}
		q.Close()

		h := NewHLL(HLLConfig[uint64]{Table: pinConfig(degree), Precision: 10})
		pinStream(h.Writer(0).UpdateKeyedBatch)
		h.Drain()
		eng := h.Engine()
		got, err := eng.MarshalCompact(h.Rollup())
		if err != nil {
			t.Fatal(err)
		}
		hagg := eng.NewAggregator()
		h.Snapshot().ForEach(func(_ uint64, c *hll.Sketch) { _ = hagg.Add(c) })
		want, err := eng.MarshalCompact(hagg.Result())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("degree %d: HLL rollup registers differ from the snapshot union's", degree)
		}
		if sum := sha256Hex(got); sum != hllRollupSHA256 {
			t.Errorf("degree %d: HLL rollup sha256 %s, pinned %s", degree, sum, hllRollupSHA256)
		}
		h.Close()
	}
}

// TestRollupAllocsIndependentOfKeys: a serial Θ rollup allocates as
// much at 10 000 keys as at 1 000, to within a few allocations — no
// per-key compact, and one scratch reused from key to key. (When every
// key was copied out it was two allocations per key.)
func TestRollupAllocsIndependentOfKeys(t *testing.T) {
	allocs := func(nKeys int) float64 {
		tab := NewTheta(ThetaConfig[uint64]{
			Table: Config[uint64]{Writers: 1, Shards: 64, ReadParallelism: 1},
			K:     16, MaxError: 0.25, // eager limit 2/e² = 32
		})
		defer tab.Close()
		var keys, vals []uint64
		for k := 0; k < nKeys; k++ {
			n := 10 // flat
			if k%10 == 0 {
				n = 200 // concurrent, in estimation mode
			}
			for i := 0; i < n; i++ {
				keys = append(keys, uint64(k))
				vals = append(vals, uint64(k)<<32|uint64(i))
			}
		}
		w := tab.Writer(0)
		for off := 0; off < len(keys); off += 4096 {
			end := min(off+4096, len(keys))
			w.UpdateKeyedBatch(keys[off:end], vals[off:end])
		}
		tab.Drain()
		tab.Rollup()
		return testing.AllocsPerRun(5, func() { tab.Rollup() })
	}
	small, large := allocs(1_000), allocs(10_000)
	if large > small+8 {
		t.Errorf("serial rollup allocates %.0f at 1 000 keys and %.0f at 10 000", small, large)
	}
}

// TestRollupConcurrentWithEviction: rollups in a loop beside two
// writers and a key cap that keeps evicting (CI runs it under -race,
// repeatedly). Each writer sends fresh items to a home key, and the
// same items again to churn keys that the cap evicts. The two home keys
// share a shard no churn key lands in, under that shard's cap, so they
// are never evicted: the distinct count sent so far is known, and each
// rollup must land within 5·RSE of it, give or take the relaxation
// bound and the batches in flight.
func TestRollupConcurrentWithEviction(t *testing.T) {
	const shards, perShard, batch, k = 4, 4, 256, 256
	var home, churn []uint64
	homeShard := keyHash(uint64(0)) & (shards - 1)
	for key := uint64(0); len(home) < 2 || len(churn) < 96; key++ {
		if keyHash(key)&(shards-1) == homeShard {
			if len(home) < 2 {
				home = append(home, key)
			}
		} else if len(churn) < 96 {
			churn = append(churn, key)
		}
	}
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{Writers: 2, Shards: shards, MaxKeys: shards * perShard, ReadParallelism: 2},
		K:     k,
	})
	defer tab.Close()

	var sent atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			// Skewed churn: hot churn keys survive long enough to leave
			// the flat phase, cold ones are evicted flat.
			z := rand.NewZipf(rand.New(rand.NewSource(int64(wi)+1)), 1.5, 1, uint64(len(churn)-1))
			keys := make([]uint64, 2*batch)
			vals := make([]uint64, 2*batch)
			next := uint64(wi) << 48
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < batch; i++ {
					keys[i], vals[i] = home[wi], next+uint64(i)
				}
				for c := 0; c < 4; c++ {
					key := churn[z.Uint64()]
					for i := c * batch / 4; i < (c+1)*batch/4; i++ {
						keys[batch+i], vals[batch+i] = key, next+uint64(i)
					}
				}
				w.UpdateKeyedBatch(keys, vals)
				next += batch
				sent.Add(batch)
			}
		}(wi)
	}

	tol := 5 / math.Sqrt(k-2)
	r := int64(tab.Relaxation())
	check := func(est float64, lo, hi int64) {
		t.Helper()
		if est < float64(lo)*(1-tol) || est > float64(hi)*(1+tol) {
			t.Errorf("rollup estimate %.0f outside 5·RSE of [%d, %d] distinct items", est, lo, hi)
		}
	}
	rollups := 0
	for deadline := time.Now().Add(150 * time.Millisecond); time.Now().Before(deadline); rollups++ {
		before := sent.Load()
		est := tab.Rollup().Estimate()
		// A home key may hide up to r updates in writer buffers, and a
		// batch per writer may be half applied.
		check(est, before-2*r, sent.Load()+2*batch)
	}
	close(stop)
	wg.Wait()
	tab.Drain()
	check(tab.Rollup().Estimate(), sent.Load(), sent.Load())
	if tab.Evictions() == 0 {
		t.Error("the key cap evicted nothing")
	}
	if rollups < 2 {
		t.Errorf("%d rollups ran beside the writers", rollups)
	}
}

// TestRollupConcurrentAcrossFlatBoundary: rollups in a loop beside two
// writers that push fresh keys across the flat→concurrent boundary
// while the pool merges (CI runs it under -race, repeatedly). Both
// writers send each round's keys distinct items in small runs, so a
// key's flat array fills from both, one of them materializes it, and
// the other's next run goes through the buffers. With 1 024 shards most
// fresh keys land in a shard that was empty, so rollups read shard
// floors while keys are created and their floors fall, and skip shards
// whose floors are above their bounds. Each rollup may miss what writer
// buffers hide, but never counts more than was sent; once drained, the
// rollup is exactly the union of the keys' compacts and within 5·RSE of
// everything sent.
func TestRollupConcurrentAcrossFlatBoundary(t *testing.T) {
	for _, shards := range []int{8, 1024} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rollupConcurrentAcrossFlatBoundary(t, shards)
		})
	}
}

func rollupConcurrentAcrossFlatBoundary(t *testing.T, shards int) {
	const k, keysPerRound, run = 64, 8, 12 // MaxError 0.2: eager limit 50
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{Writers: 2, Shards: shards, ReadParallelism: 2},
		K:     k, MaxError: 0.2,
	})
	defer tab.Close()
	var sent atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			keys := make([]uint64, keysPerRound*run)
			vals := make([]uint64, keysPerRound*run)
			next := uint64(wi) << 48
			for round := uint64(0); ; round++ {
				// Eight runs per key per writer: 192 items a key, of
				// which the first 50 or so stay flat.
				for b := 0; b < 8; b++ {
					select {
					case <-stop:
						return
					default:
					}
					for i := range keys {
						keys[i], vals[i] = round*keysPerRound+uint64(i/run), next
						next++
					}
					w.UpdateKeyedBatch(keys, vals)
					sent.Add(int64(len(keys)))
				}
			}
		}(wi)
	}
	tol := 5 / math.Sqrt(k-2)
	rollups := 0
	for deadline := time.Now().Add(150 * time.Millisecond); time.Now().Before(deadline); rollups++ {
		if est := tab.Rollup().Estimate(); est > float64(sent.Load()+2*keysPerRound*run)*(1+tol) {
			t.Errorf("rollup estimate %.0f above 5·RSE of the %d items sent", est, sent.Load())
		}
	}
	close(stop)
	wg.Wait()
	tab.Drain()
	if tab.Pool().Sketches() == 0 {
		t.Errorf("none of %d keys left its flat phase", tab.Keys())
	}
	est, n := checkRollupExact(t, "drained", tab.Table).Estimate(), float64(sent.Load())
	if est < n*(1-tol) || est > n*(1+tol) {
		t.Errorf("drained rollup estimate %.0f outside 5·RSE of %.0f distinct items", est, n)
	}
	if rollups < 2 {
		t.Errorf("%d rollups ran beside the writers", rollups)
	}
	// Drained, most of 1 024 shards hold no sample a 2-worker rollup
	// keeps (at 8 shards, every one does).
	held := 0
	for i := range tab.shards {
		if len(tab.shards[i].m) > 0 {
			held++
		}
	}
	if _, read := tab.rollupShards(2); shards > 8 && read >= held {
		t.Errorf("a drained rollup read %d of the %d shards holding keys, skipped none", read, held)
	}
}

// TestRollupSkipIsExact: a Θ key whose low — the minimum of every hash
// offered to it — is at or above the union's bound is not scanned, and
// the rollup's bytes stay those of a fold that adds every key's
// CompactKey, in the same key order. One case per path that lowers low:
// flat arrays (flatAdd), buffered merges into the global (Merge), a flat
// array handed to the new global when a key leaves its flat phase
// (AbsorbCompact), each over QuickSelect and over KMV. Each case is
// built so that a path that forgot to lower low would get keys with
// samples the union takes skipped: the absorb keys keep their K+1
// smallest samples from the flat phase, and everything after it is
// larger. Core's eager UpdateDirect path never runs in a table; theta's
// TestAddToSkipIsExact covers it.
func TestRollupSkipIsExact(t *testing.T) {
	const k, flatMax, keys = 16, 49, 30 // K=16, MaxError 0.2: eager limit 50
	// small and large split values by their hash: every small value's
	// hash lies below every large one's.
	const split = hash.MaxThetaValue / 1000
	var small, large []uint64
	for v := uint64(0); len(small) < keys*flatMax || len(large) < keys*200; v++ {
		if hash.ThetaHashUint64(v, hash.DefaultSeed) < split {
			small = append(small, v)
		} else {
			large = append(large, v)
		}
	}
	// send feeds each key its run of n(key) values from vals, one batch
	// per call.
	send := func(w *Writer[uint64, uint64, float64, *theta.Compact], n func(key uint64) int, vals func(key uint64, i int) uint64) {
		var ks, vs []uint64
		for key := uint64(0); key < keys; key++ {
			for i := 0; i < n(key); i++ {
				ks = append(ks, key)
				vs = append(vs, vals(key, i))
			}
		}
		w.UpdateKeyedBatch(ks, vs)
	}
	distinct := func(key uint64, i int) uint64 { return key<<32 | uint64(i) }
	flat := func(w *Writer[uint64, uint64, float64, *theta.Compact]) {
		send(w, func(key uint64) int { return 10 + int(key) }, distinct)
	}
	merge := func(w *Writer[uint64, uint64, float64, *theta.Compact]) {
		send(w, func(key uint64) int { return 100 * (1 + int(key)%10) }, distinct)
	}
	absorb := func(w *Writer[uint64, uint64, float64, *theta.Compact]) {
		send(w, func(uint64) int { return flatMax }, func(key uint64, i int) uint64 { return small[int(key)*flatMax+i] })
		send(w, func(uint64) int { return 200 }, func(key uint64, i int) uint64 { return large[int(key)*200+i] })
	}
	cases := []struct {
		name     string
		maxError float64 // 1: no flat phase
		feed     func(w *Writer[uint64, uint64, float64, *theta.Compact])
		flatKeys int64
	}{
		{"flat", 0.2, flat, keys},
		{"merge", 1, merge, 0},
		{"absorb", 0.2, absorb, 0},
	}
	for _, kmv := range []bool{false, true} {
		for _, tc := range cases {
			for _, degree := range []int{1, 4} {
				name := fmt.Sprintf("%s/kmv=%v/degree=%d", tc.name, kmv, degree)
				eng := theta.NewEngine(theta.ConcurrentConfig{K: k, Writers: 1, MaxError: tc.maxError, BufferSize: 8, UseKMV: kmv})
				tab := New[uint64](Config[uint64]{Writers: 1, Shards: 8, ReadParallelism: degree},
					core.Engine[uint64, float64, *theta.Compact](eng))
				tc.feed(tab.Writer(0))
				tab.Drain()
				if f := int64(tab.Keys()) - tab.Pool().Sketches(); f != tc.flatKeys {
					t.Fatalf("%s: %d flat keys, want %d", name, f, tc.flatKeys)
				}
				if want := checkRollupExact(t, name, tab); want.Retained() <= k/2 {
					t.Errorf("%s: the per-key fold retained only %d samples", name, want.Retained())
				}
				tab.Close()
			}
		}
	}

	// Whole shards: a rollup skips, unread, a shard whose floor is at or
	// above its worker's bound. ofShard[i] is a key of shard i of 64.
	const shards = 64
	ofShard, seen := make([]uint64, shards), make([]bool, shards)
	for found, key := 0, uint64(0); found < shards; key++ {
		if si := keyHash(key) & (shards - 1); !seen[si] {
			ofShard[si], seen[si] = key, true
			found++
		}
	}
	// "skip": four head keys, one per shard, hold 200 small hashes each
	// (one run: past the eager limit, so Merge lowers the floor), and the
	// union keeps K of them; 40 tail shards hold a flat key each with
	// large hashes only. A serial rollup visits shards by floor, so once
	// it has read a head shard its bound is below every tail shard's
	// floor: it reads at most the four head shards. "read" and
	// "read-merge": each of 48 shards holds one key with a single small
	// hash among ten large ones, flat or concurrent from its first
	// update, and the union keeps the K smallest of the 48 small ones, so
	// at least K shards must be read; a path that left a floor above its
	// small hash would skip that shard and change the bytes.
	headTail := func(w *Writer[uint64, uint64, float64, *theta.Compact]) {
		var ks, vs []uint64
		for i := 0; i < 44; i++ {
			for j := 0; j < 200; j++ {
				if i < 4 {
					ks, vs = append(ks, ofShard[i]), append(vs, small[i*200+j])
				} else if j < 10 {
					ks, vs = append(ks, ofShard[i]), append(vs, large[i*10+j])
				}
			}
		}
		w.UpdateKeyedBatch(ks, vs)
	}
	oneSmall := func(w *Writer[uint64, uint64, float64, *theta.Compact]) {
		var ks, vs []uint64
		for i := 0; i < 48; i++ {
			ks, vs = append(ks, ofShard[i]), append(vs, small[i])
			for j := 0; j < 10; j++ {
				ks, vs = append(ks, ofShard[i]), append(vs, large[i*10+j])
			}
		}
		w.UpdateKeyedBatch(ks, vs)
	}
	shardCases := []struct {
		name             string
		maxError         float64
		feed             func(w *Writer[uint64, uint64, float64, *theta.Compact])
		minRead, maxRead int // serial rollup
	}{
		{"skip", 0.2, headTail, 1, 4},
		{"read", 0.2, oneSmall, k, 48},
		{"read-merge", 1, oneSmall, k, 48},
	}
	for _, kmv := range []bool{false, true} {
		for _, tc := range shardCases {
			for _, degree := range []int{1, 4} {
				name := fmt.Sprintf("shards/%s/kmv=%v/degree=%d", tc.name, kmv, degree)
				eng := theta.NewEngine(theta.ConcurrentConfig{K: k, Writers: 1, MaxError: tc.maxError, BufferSize: 8, UseKMV: kmv})
				tab := New[uint64](Config[uint64]{Writers: 1, Shards: shards, ReadParallelism: degree},
					core.Engine[uint64, float64, *theta.Compact](eng))
				tc.feed(tab.Writer(0))
				tab.Drain()
				if want := checkRollupExact(t, name, tab); want.Retained() != k {
					t.Errorf("%s: the per-key fold retained %d samples, want K=%d", name, want.Retained(), k)
				}
				_, read := tab.rollupShards(1)
				if read < tc.minRead || read > tc.maxRead {
					t.Errorf("%s: a serial rollup read %d shards, want %d to %d", name, read, tc.minRead, tc.maxRead)
				}
				tab.Close()
			}
		}
	}
}

// checkRollupExact folds a quiesced Θ table's keys into two unions in
// one key order, in place (addEntry, as a rollup reads them) and as
// their CompactKey compacts, and checks that both, and Rollup, marshal
// to the same bytes. It returns the per-key fold.
func checkRollupExact(t *testing.T, name string, tab *Table[uint64, uint64, float64, *theta.Compact]) *theta.Compact {
	t.Helper()
	eng := tab.Engine()
	keys, ents := tab.collectEntries()
	inPlace, perKey := eng.NewAggregator(), eng.NewAggregator()
	for i, key := range keys {
		tab.addEntry(inPlace, ents[i])
		c, _ := tab.CompactKey(key)
		if err := perKey.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	want := perKey.Result()
	wantB, _ := eng.MarshalCompact(want)
	gotB, _ := eng.MarshalCompact(inPlace.Result())
	rollB, _ := eng.MarshalCompact(tab.Rollup())
	if !bytes.Equal(gotB, wantB) {
		t.Errorf("%s: folding the keys in place differs from adding their compacts", name)
	}
	if !bytes.Equal(rollB, wantB) {
		t.Errorf("%s: Rollup differs from adding every key's compact", name)
	}
	return want
}
