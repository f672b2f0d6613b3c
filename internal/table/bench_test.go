package table

import (
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
			// a modelled distribution (the zipfian sweep lives in
			// cmd/fcds-bench).
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

// BenchmarkTableRollup measures the all-keys read: 1 000 keys, a third
// of them still flat, the rest in estimation mode; one op is one
// Rollup (per key: a compact and an order-free merge).
func BenchmarkTableRollup(b *testing.B) {
	tab := NewTheta(ThetaConfig[uint64]{Table: Config[uint64]{Writers: 1, Shards: 64}, K: 256})
	defer tab.Close()
	w := tab.Writer(0)
	const keys = 1000
	for k := uint64(0); k < keys; k++ {
		n := uint64(3000)
		if k%3 == 0 {
			n = 300 // below the eager limit: flat
		}
		for i := uint64(0); i < n; i++ {
			w.UpdateKeyed(k, k<<32|i)
		}
	}
	tab.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab.Rollup().Retained() == 0 {
			b.Fatal("empty rollup")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/keys, "ns/key")
}
