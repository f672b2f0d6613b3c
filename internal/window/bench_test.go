package window

import (
	"testing"
	"time"

	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// BenchmarkWindowIngest: standalone windowed Θ ingestion through the
// batch pipeline, with a rotation every 64 batches — the epoch-ring
// overhead on the hot path is one atomic load per batch.
func BenchmarkWindowIngest(b *testing.B) {
	eng := theta.NewEngine(theta.ConcurrentConfig{K: 4096, Writers: 1, MaxError: 1, BufferSize: 64})
	w := New(eng, Config{Slots: 6, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	batch := make([]uint64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = uint64(i)<<16 | uint64(j)
		}
		wr.UpdateBatch(batch)
		if i%64 == 63 {
			w.Rotate()
		}
	}
}

// BenchmarkWindowTableKeyedBatch: keyed windowed ingestion (16 hot
// keys, 512-item batches) with a rotation every 64 batches. The
// window-vs-table ratio on a realistic stream is the benchmark's
// window.overhead_x (benchmark/, workload window_hot).
func BenchmarkWindowTableKeyedBatch(b *testing.B) {
	tcfg, eng := table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: 1, Shards: 256},
	}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: 6, Width: time.Hour})
	defer wt.Close()
	w := wt.Writer(0)
	const chunk = 512
	keys := make([]uint64, chunk)
	vals := make([]uint64, chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = uint64(j % 16)
			vals[j] = uint64(i)<<16 | uint64(j)
		}
		w.UpdateKeyedBatch(keys, vals)
		if i%64 == 63 {
			wt.Rotate()
		}
	}
}

// BenchmarkWindowRollup measures the all-keys window read on a full
// ring (sealed aggregate, draining and active epoch, 15 keys each):
// one op is one RollupWindow.
func BenchmarkWindowRollup(b *testing.B) {
	wt, _ := orderTestWindow(b)
	defer wt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wt.RollupWindow().Retained() == 0 {
			b.Fatal("empty rollup")
		}
	}
}
