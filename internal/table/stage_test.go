package table_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hll"
	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
	"github.com/fcds/fcds/internal/window"
)

// The batch entry points stage a batch in blocks of up to 256 items:
// one call hashes a block's keys and one its values, then each item is
// grouped and filtered. These tests hold every entry point to the
// single-item path it must equal, across block boundaries, for each
// family and a keyed window; they live in an external test package so
// the windowed table (which imports table) can be built here.

// stageTable is one fresh keyed table, or keyed window, behind the calls
// the checks make.
type stageTable[K table.Key, V, S, C any] struct {
	w *table.Writer[K, V, S, C]
	// image drains the table and returns its key-ordered FCTB image.
	image func() []byte
	keys  func() int
	// has reports whether a key is found through its shard.
	has   func(k K) bool
	close func()
}

// stageFamily opens fresh stage tables of one family, one writer each.
type stageFamily[K table.Key, V, S, C any] struct {
	eng      core.Engine[V, S, C]
	pool     *core.PropagatorPool
	windowed bool
}

func (f stageFamily[K, V, S, C]) open(t testing.TB) stageTable[K, V, S, C] {
	cfg := table.Config[K]{Writers: 1, Shards: 8, Pool: f.pool}
	if f.windowed {
		wt := window.NewTable(cfg, f.eng, window.Config{Slots: 4})
		return stageTable[K, V, S, C]{
			w: wt.Writer(0),
			image: func() []byte {
				wt.Drain()
				s, err := wt.WindowSnapshot()
				return marshalSnapshot(t, s, err)
			},
			keys:  wt.Keys,
			has:   func(k K) bool { _, ok := wt.QueryWindow(k); return ok },
			close: wt.Close,
		}
	}
	tab := table.New(cfg, f.eng)
	return stageTable[K, V, S, C]{
		w: tab.Writer(0),
		image: func() []byte {
			tab.Drain()
			b, err := tab.SnapshotBinary()
			if err != nil {
				t.Fatal(err)
			}
			// SnapshotBinary lists keys in walk order; its decoded
			// snapshot re-encodes them in key order.
			s, err := table.UnmarshalSnapshot[K](b, core.CompactCodec[C](f.eng))
			return marshalSnapshot(t, s, err)
		},
		keys:  tab.Keys,
		has:   func(k K) bool { _, ok := tab.Query(k); return ok },
		close: tab.Close,
	}
}

func marshalSnapshot[K table.Key, C any](t testing.TB, s *table.TableSnapshot[K, C], err error) []byte {
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// run feeds one fresh table through feed and returns its image and key
// count, after checking that each of keys is found where a single-key
// read looks for it.
func (f stageFamily[K, V, S, C]) run(t testing.TB, keys []K, feed func(w *table.Writer[K, V, S, C])) ([]byte, int) {
	st := f.open(t)
	defer st.close()
	feed(st.w)
	img := st.image()
	for _, k := range keys {
		if !st.has(k) {
			t.Errorf("key %v is not found through its shard", k)
			break
		}
	}
	return img, st.keys()
}

// inBatches calls batch for each run of at most n of count items; an
// empty stream is one empty batch.
func inBatches(count, n int, batch func(lo, hi int)) {
	if count == 0 {
		batch(0, 0)
		return
	}
	for lo := 0; lo < count; lo += n {
		batch(lo, min(lo+n, count))
	}
}

// checkStaged feeds one stream to fresh tables through every batch
// entry point in batches of at most n items, and fails unless each
// drained table has the image and key count of one fed item by item.
// items, when not nil, are the string items of the same stream.
func checkStaged[K table.Key, V, S, C any](t testing.TB, f stageFamily[K, V, S, C], n int, keys []K, vals []V, items []string) {
	want, wantKeys := f.run(t, keys, func(w *table.Writer[K, V, S, C]) {
		for i, k := range keys {
			w.UpdateKeyed(k, vals[i])
		}
	})
	hs := make([]V, len(vals))
	for i, v := range vals {
		hs[i] = f.eng.HashValue(v)
	}
	check := func(name string, want []byte, wantKeys int, feed func(w *table.Writer[K, V, S, C])) {
		got, gotKeys := f.run(t, keys, feed)
		if gotKeys != wantKeys {
			t.Errorf("%s, batches of %d: %d keys, item by item %d", name, n, gotKeys, wantKeys)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s, batches of %d: snapshot differs from item by item (%d vs %d bytes)", name, n, len(got), len(want))
		}
	}
	check("UpdateKeyedBatch", want, wantKeys, func(w *table.Writer[K, V, S, C]) {
		inBatches(len(keys), n, func(lo, hi int) { w.UpdateKeyedBatch(keys[lo:hi], vals[lo:hi]) })
	})
	check("UpdateKeyedHashedBatch", want, wantKeys, func(w *table.Writer[K, V, S, C]) {
		inBatches(len(keys), n, func(lo, hi int) { w.UpdateKeyedHashedBatch(keys[lo:hi], hs[lo:hi]) })
	})
	check("BatchAddRun", want, wantKeys, func(w *table.Writer[K, V, S, C]) {
		// Two runs per commit: a batch is whatever was staged since the
		// last one.
		inBatches(len(keys), n, func(lo, hi int) {
			mid := lo + (hi-lo)/3
			w.BatchAddRun(keys[lo:mid], vals[lo:mid])
			w.BatchAddRun(keys[mid:hi], vals[mid:hi])
			w.BatchCommit()
		})
	})
	check("BatchAddHashed", want, wantKeys, func(w *table.Writer[K, V, S, C]) {
		ahs := f.eng.AppendHashValues(nil, vals)
		inBatches(len(keys), n, func(lo, hi int) {
			mid := lo + (hi-lo)/3
			w.BatchAddHashed(keys[lo:mid], ahs[lo:mid])
			w.BatchAddHashed(keys[mid:hi], ahs[mid:hi])
			w.BatchCommit()
		})
	})
	if items == nil {
		return
	}
	// A string item has no single-item entry point: one-item batches
	// are the reference.
	want, wantKeys = f.run(t, keys, func(w *table.Writer[K, V, S, C]) {
		sw := table.StringWriter[K, V, S, C]{Writer: w}
		for i := range keys {
			sw.UpdateKeyedStringBatch(keys[i:i+1], items[i:i+1])
		}
	})
	check("UpdateKeyedStringBatch", want, wantKeys, func(w *table.Writer[K, V, S, C]) {
		sw := table.StringWriter[K, V, S, C]{Writer: w}
		inBatches(len(keys), n, func(lo, hi int) { sw.UpdateKeyedStringBatch(keys[lo:hi], items[lo:hi]) })
	})
}

// stageStream is a seeded zipf stream over 40 keys: a few keys far above
// the small sketches' K, so the writer's filter drops most of their
// items, and a tail of keys that stay small.
func stageStream(n int) (idx []int, raw []uint64, items []string) {
	rng := rand.New(rand.NewSource(47))
	zipf := rand.NewZipf(rng, 1.2, 1, 39)
	idx, raw, items = make([]int, n), make([]uint64, n), make([]string, n)
	for i := range idx {
		idx[i] = int(zipf.Uint64())
		raw[i] = rng.Uint64()
		items[i] = "item-" + strconv.FormatUint(raw[i], 36)
	}
	return idx, raw, items
}

// checkFamily runs checkStaged over every batch length, with uint64 and
// string keys.
func checkFamily[V, S, C any](t *testing.T, f stageFamily[uint64, V, S, C], val func(uint64) V) {
	const streamLen = 6000
	idx, raw, items := stageStream(streamLen)
	vals := make([]V, streamLen)
	for i, x := range raw {
		vals[i] = val(x)
	}
	if _, ok := f.eng.(core.StringEngine[V]); !ok || f.windowed {
		items = nil // a keyed window's engine hashes no strings
	}
	ukeys, skeys := make([]uint64, streamLen), make([]string, streamLen)
	for i, k := range idx {
		ukeys[i], skeys[i] = uint64(k)*0x9e3779b97f4a7c15, "key-"+strconv.Itoa(k)
	}
	sf := stageFamily[string, V, S, C]{eng: f.eng, pool: f.pool, windowed: f.windowed}
	for _, n := range []int{0, 1, 7, 8, 255, 256, 257, 2053} {
		m := streamLen
		if n == 0 {
			m = 0
		}
		var its []string
		if items != nil {
			its = items[:m]
		}
		t.Run(fmt.Sprintf("uint64/%d", n), func(t *testing.T) {
			checkStaged(t, f, n, ukeys[:m], vals[:m], its)
		})
		t.Run(fmt.Sprintf("string/%d", n), func(t *testing.T) {
			checkStaged(t, sf, n, skeys[:m], vals[:m], its)
		})
	}
}

// checkAppendHashValues fails unless AppendHashValues appends exactly
// HashValue of each value behind a kept dst prefix, for lengths on
// either side of the vector kernels' lanes and of a stage block.
func checkAppendHashValues[V, S, C any](t *testing.T, eng core.Engine[V, S, C], val func(uint64) V) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{0, 1, 7, 8, 9, 255, 256, 257, 2053} {
		vs := make([]V, n)
		for i := range vs {
			vs[i] = val(rng.Uint64())
		}
		prefix := []V{val(1), val(2), val(3)}
		got := eng.AppendHashValues(append([]V(nil), prefix...), vs)
		want := append([]V(nil), prefix...)
		for _, v := range vs {
			want = append(want, eng.HashValue(v))
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d values appended, want %d", n, len(got)-len(prefix), n)
		}
		for i := range want {
			if any(got[i]) != any(want[i]) {
				t.Fatalf("n=%d: element %d is %v, HashValue gives %v", n, i, got[i], want[i])
			}
		}
	}
}

func u64Val(x uint64) uint64 { return x }

// f64Val maps a raw word to a sample in [0, 1).
func f64Val(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// TestStagedBlocksMatchItemwise: for Θ, HLL and quantiles tables and a
// windowed Θ table, with uint64 and string keys, every batch entry point
// leaves the table with the snapshot bytes and keys of UpdateKeyed
// called item by item, for batch lengths around the 256-item block; and
// each engine's AppendHashValues is its HashValue, item by item.
func TestStagedBlocksMatchItemwise(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	_, th := table.ThetaConfig[uint64]{K: 16}.Engine()
	_, hl := table.HLLConfig[uint64]{Precision: 4}.Engine()
	_, qu := table.QuantilesConfig[uint64]{K: 16}.Engine()
	thEng := core.Engine[uint64, float64, *theta.Compact](th)
	hlEng := core.Engine[uint64, float64, *hll.Sketch](hl)
	quEng := core.Engine[float64, *quantiles.Snapshot, *quantiles.Sketch](qu)

	t.Run("hash/theta", func(t *testing.T) { checkAppendHashValues(t, thEng, u64Val) })
	t.Run("hash/hll", func(t *testing.T) { checkAppendHashValues(t, hlEng, u64Val) })
	t.Run("hash/quantiles", func(t *testing.T) { checkAppendHashValues(t, quEng, f64Val) })
	t.Run("theta", func(t *testing.T) {
		checkFamily(t, stageFamily[uint64, uint64, float64, *theta.Compact]{eng: thEng, pool: pool}, u64Val)
	})
	t.Run("hll", func(t *testing.T) {
		checkFamily(t, stageFamily[uint64, uint64, float64, *hll.Sketch]{eng: hlEng, pool: pool}, u64Val)
	})
	t.Run("quantiles", func(t *testing.T) {
		checkFamily(t, stageFamily[uint64, float64, *quantiles.Snapshot, *quantiles.Sketch]{eng: quEng, pool: pool}, f64Val)
	})
	t.Run("window-theta", func(t *testing.T) {
		checkFamily(t, stageFamily[uint64, uint64, float64, *theta.Compact]{eng: thEng, pool: pool, windowed: true}, u64Val)
	})
}

// TestStagedBatchZeroAllocs: once a writer's keys are warm, a keyed
// batch longer than one stage block — uint64 or string keys, raw values
// or string items, in one call or as runs — allocates nothing. The
// buffers are sized so the measured batches never hand off to the pool
// (pool-side merges allocate, and AllocsPerRun counts every goroutine).
func TestStagedBatchZeroAllocs(t *testing.T) {
	const batch = 2053
	idx, raw, items := stageStream(batch)
	ukeys, skeys := make([]uint64, batch), make([]string, batch)
	for i, k := range idx {
		ukeys[i], skeys[i] = uint64(k), "key-"+strconv.Itoa(k)
	}
	u := table.NewTheta(table.ThetaConfig[uint64]{Table: table.Config[uint64]{Writers: 1, Shards: 8}, K: 256, MaxError: 1, BufferSize: 1 << 16})
	defer u.Close()
	s := table.NewHLL(table.HLLConfig[string]{Table: table.Config[string]{Writers: 1, Shards: 8}, BufferSize: 1 << 16})
	defer s.Close()
	uw, sw := u.Writer(0), s.Writer(0)
	for name, f := range map[string]func(){
		"uint64/UpdateKeyedBatch": func() { uw.UpdateKeyedBatch(ukeys, raw) },
		"uint64/BatchAddRun": func() {
			uw.BatchAddRun(ukeys[:batch/2], raw[:batch/2])
			uw.BatchAddRun(ukeys[batch/2:], raw[batch/2:])
			uw.BatchCommit()
		},
		"string/UpdateKeyedBatch":       func() { sw.UpdateKeyedBatch(skeys, raw) },
		"string/UpdateKeyedStringBatch": func() { sw.UpdateKeyedStringBatch(skeys, items) },
	} {
		for range 4 {
			f() // warm: create the keys, grow the grouping scratch
		}
		if avg := testing.AllocsPerRun(50, f); avg != 0 {
			t.Errorf("%s: steady-state batch of %d allocates %.1f/op, want 0", name, batch, avg)
		}
	}
}

// FuzzKeyedStage: arbitrary keys, values and batch lengths give the
// same snapshot through the batch entry points as item by item. The
// first input byte picks the family and key type, the second the batch
// length, the third how often the records repeat (with fresh values
// each time, so hot keys pass K and the writer's filter engages); the
// rest is 10-byte records of a 2-byte key and an 8-byte value.
func FuzzKeyedStage(f *testing.F) {
	pool := core.NewPropagatorPool(1)
	f.Cleanup(pool.Close)
	_, th := table.ThetaConfig[uint64]{K: 16}.Engine()
	_, hl := table.HLLConfig[uint64]{Precision: 4}.Engine()
	_, qu := table.QuantilesConfig[uint64]{K: 16}.Engine()
	rec := func(k uint16, v uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint16(nil, k), v)
	}
	for mode := range byte(6) {
		hot := []byte{mode, 28, 40}
		for i := range 12 {
			hot = append(hot, rec(uint16(i%3), uint64(i)*0x9e3779b97f4a7c15)...)
		}
		f.Add(hot)
		f.Add(append([]byte{mode, 0, 0}, rec(7, math.MaxUint64)...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		mode, n, reps := in[0]%6, 1+int(in[1])*9, 1+int(in[2]%64)
		recs := in[3:]
		m := min(len(recs)/10*reps, 1<<14)
		ukeys, raw := make([]uint64, m), make([]uint64, m)
		for i := range m {
			r := recs[i%(len(recs)/10)*10:]
			ukeys[i] = uint64(binary.LittleEndian.Uint16(r))
			raw[i] = binary.LittleEndian.Uint64(r[2:]) + uint64(i/(len(recs)/10))*0x9e3779b97f4a7c15
		}
		skeys := make([]string, m)
		for i, k := range ukeys {
			skeys[i] = strconv.FormatUint(k, 10)
		}
		fvals := make([]float64, m)
		for i, x := range raw {
			fvals[i] = f64Val(x)
		}
		switch mode {
		case 0:
			checkStaged(t, stageFamily[uint64, uint64, float64, *theta.Compact]{eng: th, pool: pool}, n, ukeys, raw, nil)
		case 1:
			checkStaged(t, stageFamily[string, uint64, float64, *theta.Compact]{eng: th, pool: pool}, n, skeys, raw, nil)
		case 2:
			checkStaged(t, stageFamily[uint64, uint64, float64, *hll.Sketch]{eng: hl, pool: pool}, n, ukeys, raw, nil)
		case 3:
			checkStaged(t, stageFamily[string, uint64, float64, *hll.Sketch]{eng: hl, pool: pool}, n, skeys, raw, nil)
		case 4:
			checkStaged(t, stageFamily[uint64, float64, *quantiles.Snapshot, *quantiles.Sketch]{eng: qu, pool: pool}, n, ukeys, fvals, nil)
		case 5:
			checkStaged(t, stageFamily[uint64, uint64, float64, *theta.Compact]{eng: th, pool: pool, windowed: true}, n, ukeys, raw, nil)
		}
	})
}
