package table

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// benchTableKeys drives a keyed Θ table with the given distinct key
// count through the batch path and reports update throughput.
func benchTableKeys(b *testing.B, keys int, writers int) {
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{Writers: writers, Shards: 1024},
	})
	defer tab.Close()
	const chunk = 512
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / writers
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			ks := make([]uint64, chunk)
			vs := make([]uint64, chunk)
			// Scrambled counter: spreads updates over all keys without
			// a modelled distribution (zipf streams: BenchmarkTableHotKeys
			// below and the benchmark's table_* workloads).
			x := uint64(wi)*0x9e3779b97f4a7c15 + 1
			for sent := 0; sent < per; sent += chunk {
				for i := range ks {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					ks[i] = x % uint64(keys)
					vs[i] = x
				}
				w.UpdateKeyedBatch(ks, vs)
			}
		}(wi)
	}
	wg.Wait()
	b.StopTimer()
	if g := runtime.NumGoroutine(); g > tab.Pool().Workers()+writers+32 {
		b.Fatalf("goroutine count %d grew with key count", g)
	}
}

// BenchmarkTable is the acceptance benchmark: 1e5 distinct keys on one
// shared propagator pool.
func BenchmarkTable(b *testing.B) {
	benchTableKeys(b, 100_000, 4)
}

func BenchmarkTable_1e3Keys(b *testing.B) { benchTableKeys(b, 1_000, 4) }

// BenchmarkTableQuery measures the wait-free per-key query under no
// contention.
func BenchmarkTableQuery(b *testing.B) {
	tab := NewTheta(ThetaConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 64}})
	defer tab.Close()
	w := tab.Writer(0)
	for k := uint64(0); k < 1000; k++ {
		w.UpdateKeyed(k, k)
	}
	tab.Drain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Estimate(uint64(i) % 1000); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkTableRollup measures the all-keys read at K=256; one op is
// one Rollup (per key of a shard it reads: the live state folded into
// the union in place). Reports ns/key (over every live key, read or
// not), allocs/op and the shards one rollup read.
//
//   - mixed: 1 000 keys, a third of them still flat, the rest in
//     estimation mode;
//   - wide: the benchmark's table_wide shape — 2^20 zipf(1.2) draws over
//     100 000 keys leave ~47 k live keys, over 99 % of them flat;
//   - hot: the benchmark's table_hot shape — 2^24 zipf(1.2) draws over
//     1 000 keys leave every key concurrent, so each read takes the
//     key's global lock (most keys hold no sample the union can take).
func BenchmarkTableRollup(b *testing.B) {
	b.Run("mixed", func(b *testing.B) {
		tab := NewTheta(ThetaConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 64}, K: 256})
		defer tab.Close()
		w := tab.Writer(0)
		for k := uint64(0); k < 1000; k++ {
			n := uint64(3000)
			if k%3 == 0 {
				n = 300 // below the eager limit: flat
			}
			for i := uint64(0); i < n; i++ {
				w.UpdateKeyed(k, k<<32|i)
			}
		}
		tab.Drain()
		benchRollup(b, tab)
	})
	b.Run("wide", func(b *testing.B) {
		tab := NewTheta(ThetaConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 1024}, K: 256})
		defer tab.Close()
		w := tab.Writer(0)
		z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, 100_000-1)
		ks := make([]uint64, 2048)
		vs := make([]uint64, 2048)
		for next := uint64(0); next < 1<<20; {
			for i := range ks {
				ks[i], vs[i] = z.Uint64(), next
				next++
			}
			w.UpdateKeyedBatch(ks, vs)
		}
		tab.Drain()
		if flat := tab.Keys() - int(tab.Pool().Sketches()); flat*100 < 95*tab.Keys() {
			b.Fatalf("%d of %d keys flat, want at least 95 %%", flat, tab.Keys())
		}
		benchRollup(b, tab)
	})
	b.Run("hot", func(b *testing.B) {
		tab := NewTheta(ThetaConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 64}, K: 256})
		defer tab.Close()
		w := tab.Writer(0)
		z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, hotKeys-1)
		ks := make([]uint64, hotChunk)
		vs := make([]uint64, hotChunk)
		for next := uint64(0); next < 1<<24; {
			for i := range ks {
				ks[i], vs[i] = z.Uint64(), next
				next++
			}
			w.UpdateKeyedBatch(ks, vs)
		}
		tab.Drain()
		if n := tab.Pool().Sketches(); n != hotKeys || tab.Keys() != hotKeys {
			b.Fatalf("%d of %d keys concurrent, want all %d", n, tab.Keys(), hotKeys)
		}
		benchRollup(b, tab)
	})
}

func benchRollup(b *testing.B, tab *ThetaTable[uint64]) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab.Rollup().Retained() == 0 {
			b.Fatal("empty rollup")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tab.Keys()), "ns/key")
	_, read := tab.rollupShards(tab.readDegree())
	b.ReportMetric(float64(read), "shards-read/op")
}

// The hot-key stream of BenchmarkTableHotKeys and BenchmarkFamilyHotKeys:
// 1 000 zipf(1.2) keys, every value distinct, 2 048-item chunks, passes
// of 1<<20 items from two writers — so all but the tail keys are far
// above K after the first pass.
const (
	hotKeys      = 1000
	hotChunk     = 2048
	hotPassItems = 1 << 20
	hotWriters   = 2
)

// driveHotKeys sends b.N passes of the hot-key stream through st,
// reports Mitems/s and returns the number of items sent.
func driveHotKeys[V uint64 | float64, S, C any](b *testing.B, st *Table[uint64, V, S, C]) float64 {
	// One pass of keys per writer, drawn up front: the generator is not
	// what is measured.
	var ks [hotWriters][]uint64
	for wi := range ks {
		z := rand.NewZipf(rand.New(rand.NewSource(int64(wi)+1)), 1.2, 1, hotKeys-1)
		ks[wi] = make([]uint64, hotPassItems/hotWriters)
		for i := range ks[wi] {
			ks[wi][i] = z.Uint64()
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for wi := 0; wi < hotWriters; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := st.Writer(wi)
			vs := make([]V, hotChunk)
			next := uint64(wi) << 56
			for pass := 0; pass < b.N; pass++ {
				for off := 0; off < len(ks[wi]); off += hotChunk {
					for i := range vs {
						vs[i] = V(next)
						next++
					}
					w.UpdateKeyedBatch(ks[wi][off:off+hotChunk], vs)
				}
			}
		}(wi)
	}
	wg.Wait()
	b.StopTimer()
	items := float64(b.N) * hotPassItems
	b.ReportMetric(items/b.Elapsed().Seconds()/1e6, "Mitems/s")
	return items
}

// BenchmarkTableHotKeys is the filtered path's benchmark: the hot-key
// stream through one Θ table, where most of what is ingested can no
// longer change any sketch. Reports Mitems/s and the share of items the
// writers dropped in pass 1 (Stats().Prefiltered).
func BenchmarkTableHotKeys(b *testing.B) {
	tab := NewTheta(ThetaConfig[uint64]{Table: Config[uint64]{Writers: hotWriters}})
	defer tab.Close()
	items := driveHotKeys(b, tab.Table)
	b.ReportMetric(float64(tab.Stats().Prefiltered)/items, "prefiltered/item")
}

// BenchmarkFamilyHotKeys is the hot-key stream through a table of each
// family, every one at its defaults but quantiles-b4K, whose per-key
// buffer is 4·K (the setting a quantiles table gives hot keys fewer
// handoffs with). Reports Mitems/s and the share of items the writers
// dropped in pass 1 (0 for quantiles, which has no filter). Named so
// that `-bench Table` does not run it.
func BenchmarkFamilyHotKeys(b *testing.B) {
	cfg := Config[uint64]{Writers: hotWriters}
	families := []struct {
		name string
		run  func(b *testing.B) (items float64, st Stats)
	}{
		{"theta", func(b *testing.B) (float64, Stats) {
			tab := NewTheta(ThetaConfig[uint64]{Table: cfg})
			defer tab.Close()
			return driveHotKeys(b, tab.Table), tab.Stats()
		}},
		{"hll", func(b *testing.B) (float64, Stats) {
			tab := NewHLL(HLLConfig[uint64]{Table: cfg})
			defer tab.Close()
			return driveHotKeys(b, tab.Table), tab.Stats()
		}},
		{"quantiles", func(b *testing.B) (float64, Stats) {
			tab := NewQuantiles(QuantilesConfig[uint64]{Table: cfg})
			defer tab.Close()
			return driveHotKeys(b, tab.Table), tab.Stats()
		}},
		{"quantiles-b4K", func(b *testing.B) (float64, Stats) {
			tab := NewQuantiles(QuantilesConfig[uint64]{Table: cfg, K: 32, BufferSize: 4 * 32})
			defer tab.Close()
			return driveHotKeys(b, tab.Table), tab.Stats()
		}},
	}
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			items, st := f.run(b)
			b.ReportMetric(float64(st.Prefiltered)/items, "prefiltered/item")
		})
	}
}
