package theta

import (
	"bytes"
	"sync"
	"testing"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
)

// flatEngine is an exact-mode engine (k far above every count below)
// with a 200-update eager phase (2/e² at e = 0.1).
func flatEngine(writers int) *Engine {
	return NewEngine(ConcurrentConfig{K: 4096, Writers: writers, MaxError: 0.1, BufferSize: 4})
}

const flatLimit = 200

// referenceCompact is the marshalled compact of a plain Concurrent fed
// the same items: what a flat sketch's compact must equal byte for
// byte.
func referenceCompact(t *testing.T, items []uint64) []byte {
	t.Helper()
	c := NewConcurrent(ConcurrentConfig{K: 4096, Writers: 1, MaxError: 1})
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

func marshal(t *testing.T, c *Compact) []byte {
	t.Helper()
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFlatSketchLifecycle walks one sketch through the flat phase and
// out of it: every update visible on return and nothing attached to the
// pool while flat, duplicates within and across runs counted once on
// all three update paths, the compact byte-identical to a Concurrent's,
// and the run that would reach the limit materializing first.
func TestFlatSketchLifecycle(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	eng := flatEngine(1)
	sk := eng.NewSketchAffine(pool, 7)
	defer sk.Close()

	var items []uint64
	add := func(vs ...uint64) { items = append(items, vs...) }

	sk.Update(0, 1)
	sk.Update(0, 1) // duplicate across calls
	add(1)
	sk.UpdateBatch(0, []uint64{2, 3, 3, 2, 1}) // duplicates inside one run and across runs
	add(2, 3)
	sk.UpdateHashedBatch(0, []uint64{
		hash.ThetaHashUint64(4, eng.Seed()),
		hash.ThetaHashUint64(4, eng.Seed()),
		hash.ThetaHashUint64(1, eng.Seed()), // same item as the raw 1 above
		hash.MaxThetaValue,                  // outside Θ space: dropped, as the writer path drops it
	})
	add(4)
	if got := sk.Query(); got != 4 {
		t.Fatalf("flat estimate = %v, want 4", got)
	}
	sk.Flush(0) // a no-op, not a panic
	if n := pool.Sketches(); n != 0 {
		t.Fatalf("flat sketch attached to the pool (%d sketches)", n)
	}
	if got, want := marshal(t, sk.Compact()), referenceCompact(t, items); !bytes.Equal(got, want) {
		t.Fatalf("flat compact differs from a Concurrent's compact of the same items")
	}

	// 11 updates applied so far. Stay one short of the limit.
	for v := uint64(100); v < 100+flatLimit-11-1; v++ {
		sk.Update(0, v)
		add(v)
		if got := sk.Query(); got != float64(len(items)) {
			t.Fatalf("after item %d: flat estimate = %v, want %d", v, got, len(items))
		}
	}
	if n := pool.Sketches(); n != 0 {
		t.Fatalf("sketch left the flat phase at %d applied updates, limit %d", flatLimit-1, flatLimit)
	}
	// The update that reaches the limit materializes first and is
	// buffered (r = 2·N·b = 8 here), so only a flush makes it visible.
	sk.Update(0, 1000)
	add(1000)
	if n := pool.Sketches(); n != 1 {
		t.Fatalf("pool serves %d sketches after the limit, want 1", n)
	}
	if got := sk.Query(); got != float64(len(items)-1) {
		t.Fatalf("estimate right after materialization = %v, want the %d flat items", got, len(items)-1)
	}
	sk.Flush(0)
	if got := sk.Query(); got != float64(len(items)) {
		t.Fatalf("estimate after flush = %v, want %d", got, len(items))
	}
	if got, want := marshal(t, sk.Compact()), referenceCompact(t, items); !bytes.Equal(got, want) {
		t.Fatalf("compact after materialization differs from a Concurrent's compact of the same items")
	}
}

// TestFlatSketchBigRunMaterializes: a run that alone reaches the limit
// goes through the normal batch path, whatever the sketch held before.
func TestFlatSketchBigRunMaterializes(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	sk := flatEngine(1).NewSketchAffine(pool, 0)
	defer sk.Close()
	sk.UpdateBatch(0, []uint64{1, 2, 3})
	run := make([]uint64, flatLimit)
	for i := range run {
		run[i] = uint64(i + 2) // overlaps the flat items 2 and 3
	}
	sk.UpdateBatch(0, run)
	if n := pool.Sketches(); n != 1 {
		t.Fatalf("pool serves %d sketches, want 1", n)
	}
	sk.Flush(0)
	if got := sk.Query(); got != flatLimit+1 {
		t.Fatalf("estimate = %v, want %d", got, flatLimit+1)
	}
}

// TestFlatSketchResetAndClose: Reset returns a materialized sketch to
// flat (detaching it), a run to the eager limit materializes it again,
// and a closed sketch fails loudly on every later use, flat or not.
func TestFlatSketchResetAndClose(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	eng := flatEngine(1)
	sk := eng.NewSketchAffine(pool, 0)
	run := make([]uint64, flatLimit)
	for i := range run {
		run[i] = uint64(i)
	}
	sk.UpdateBatch(0, run)
	sk.Flush(0)
	if n := pool.Sketches(); n != 1 {
		t.Fatalf("pool serves %d sketches, want 1", n)
	}
	sk.Reset()
	if n, est := pool.Sketches(), sk.Query(); n != 0 || est != 0 {
		t.Fatalf("after Reset: %d pool sketches, estimate %v; want 0, 0", n, est)
	}
	sk.UpdateBatch(0, []uint64{1, 2})
	if got := sk.Query(); got != 2 {
		t.Fatalf("estimate after Reset and two items = %v, want 2", got)
	}
	sk.UpdateBatch(0, run)
	sk.Flush(0)
	if n := pool.Sketches(); n != 1 {
		t.Fatalf("after Reset and a run to the eager limit: %d pool sketches, want 1", n)
	}
	sk.Close()
	sk.Close() // idempotent
	if n := pool.Sketches(); n != 0 {
		t.Fatalf("pool serves %d sketches after Close, want 0", n)
	}

	flat := eng.NewSketchAffine(pool, 0)
	flat.Update(0, 1)
	flat.Close()
	for name, use := range map[string]func(core.EngineSketch[uint64, float64, *Compact]){
		"Update":            func(s core.EngineSketch[uint64, float64, *Compact]) { s.Update(0, 2) },
		"UpdateBatch":       func(s core.EngineSketch[uint64, float64, *Compact]) { s.UpdateBatch(0, []uint64{2}) },
		"UpdateHashedBatch": func(s core.EngineSketch[uint64, float64, *Compact]) { s.UpdateHashedBatch(0, []uint64{2}) },
		"Flush":             func(s core.EngineSketch[uint64, float64, *Compact]) { s.Flush(0) },
		"Query":             func(s core.EngineSketch[uint64, float64, *Compact]) { s.Query() },
		"Compact":           func(s core.EngineSketch[uint64, float64, *Compact]) { s.Compact() },
		"Reset":             func(s core.EngineSketch[uint64, float64, *Compact]) { s.Reset() },
	} {
		for kind, s := range map[string]core.EngineSketch[uint64, float64, *Compact]{"materialized": sk, "flat": flat} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a closed %s sketch did not panic", name, kind)
					}
				}()
				use(s)
			}()
		}
	}
}

// TestFlatOnlyWithEagerPhase: engines without an eager phase build the
// Concurrent at construction, as before the flat phase existed.
func TestFlatOnlyWithEagerPhase(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	for name, eng := range map[string]core.Engine[uint64, float64, *Compact]{
		"MaxError 1":   NewEngine(ConcurrentConfig{K: 4096, MaxError: 1}),
		"EagerLimit<0": NewEngine(ConcurrentConfig{K: 4096, EagerLimit: -1}),
	} {
		sk := eng.NewSketchAffine(pool, 0)
		if n := pool.Sketches(); n != 1 {
			t.Errorf("%s: pool serves %d sketches at construction, want 1", name, n)
		}
		sk.Close()
	}
}

// TestFlatSketchWritersRaceThroughLimit: N writers drive one sketch
// through the limit while a reader queries and compacts it; no item is
// lost or counted twice, and the estimate never decreases. Run under
// -race -count=10.
func TestFlatSketchWritersRaceThroughLimit(t *testing.T) {
	const writers, perWriter = 4, 150 // 600 updates against a limit of 200
	pool := core.NewPropagatorPool(2)
	defer pool.Close()
	sk := flatEngine(writers).NewSketchAffine(pool, 0)
	defer sk.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		prev := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			est := sk.Query()
			if est < prev || est > writers*perWriter {
				t.Errorf("estimate went %v -> %v (at most %d items sent)", prev, est, writers*perWriter)
				return
			}
			prev = est
			if c := sk.Compact().Estimate(); c > writers*perWriter {
				t.Errorf("compact estimate %v exceeds the %d items sent", c, writers*perWriter)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := uint64(w*perWriter + i)
				switch i % 3 {
				case 0:
					sk.Update(w, v)
				case 1:
					sk.UpdateBatch(w, []uint64{v, v}) // a duplicate in the run
				default:
					// Every writer also resends item 0: a duplicate across writers.
					sk.UpdateHashedBatch(w, []uint64{hash.ThetaHashUint64(v, hash.DefaultSeed), hash.ThetaHashUint64(0, hash.DefaultSeed)})
				}
			}
			sk.Flush(w)
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := sk.Query(); got != writers*perWriter {
		t.Fatalf("estimate after every writer flushed = %v, want %d", got, writers*perWriter)
	}
	if got := sk.Compact().Estimate(); got != writers*perWriter {
		t.Fatalf("compact estimate = %v, want %d", got, writers*perWriter)
	}
}
