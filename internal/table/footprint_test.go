package table

import (
	"runtime"
	"testing"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/theta"
)

// TestConcurrentThetaKeyFootprint bounds the live heap of a concurrent
// Θ key at the table defaults (K=256, two writer slots): its samples in
// a 2k-slot table, its writers and its core sketch, and no buffer kept
// only for rebuilds. 1 000 keys each take 4 000 distinct items, so every
// one is concurrent and in estimation mode, and every writer is
// flushed.
func TestConcurrentThetaKeyFootprint(t *testing.T) {
	const (
		keys    = 1000
		items   = 4000
		run     = 8
		maxByte = 6 << 10
	)
	_, eng := ThetaConfig[uint64]{Table: Config[uint64]{Writers: 2}}.Engine()
	pool := core.NewPropagatorPool(1)
	defer pool.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// A table writer hands a key its items in short per-key runs, the
	// keys interleaved; so does this loop.
	sketches := make([]core.EngineSketch[uint64, float64, *theta.Compact], keys)
	for k := range sketches {
		sketches[k] = eng.NewSketchAffine(pool, uint64(k)+1)
	}
	var buf [run]uint64
	for off := 0; off < items; off += 2 * len(buf) {
		for k, s := range sketches {
			for w := 0; w < 2; w++ {
				for i := range buf {
					buf[i] = uint64(k)<<32 | uint64(off+w*len(buf)+i)
				}
				s.UpdateBatch(w, buf[:])
			}
		}
	}
	for _, s := range sketches {
		s.Flush(0)
		s.Flush(1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perKey := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / keys
	for _, s := range sketches {
		if s.Query() < items/2 {
			t.Fatalf("estimate %v for %d distinct items", s.Query(), items)
		}
	}
	runtime.KeepAlive(sketches)
	t.Logf("%d B of live heap per concurrent key", perKey)
	if perKey > maxByte {
		t.Errorf("%d B of live heap per concurrent K=256 key, want ≤ %d", perKey, maxByte)
	}
	for _, s := range sketches {
		s.Close()
	}
}
