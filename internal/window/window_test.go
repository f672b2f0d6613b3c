package window

import (
	"testing"
	"time"

	"github.com/fcds/fcds/internal/hll"
	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/theta"
)

// exactTheta returns a Θ engine big enough that the test streams stay
// in exact mode, so in-window counts are asserted exactly.
func exactTheta(writers int) *theta.Engine {
	return theta.NewEngine(theta.ConcurrentConfig{K: 2048, Writers: writers, MaxError: 1})
}

// TestWindowExpiredEpochExcluded pins the sliding-window contract: an
// epoch's items are counted while the epoch is within the last Slots
// rotations and excluded afterwards. Rotation is driven explicitly, so
// the assertion is deterministic.
func TestWindowExpiredEpochExcluded(t *testing.T) {
	const slots = 3
	w := New(exactTheta(1), Config{Slots: slots, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)

	// Epoch 0: items 0..99.
	for i := 0; i < 100; i++ {
		wr.Update(uint64(i))
	}
	w.Drain()
	if got := w.QueryWindow(); got != 100 {
		t.Fatalf("epoch 0 window = %v, want 100", got)
	}

	// Rotations 1..slots-1: old epoch still in the window.
	for rot := 1; rot < slots; rot++ {
		w.Rotate()
		// Each epoch adds 10 fresh items.
		for i := 0; i < 10; i++ {
			wr.Update(uint64(1000*rot + i))
		}
		w.Drain()
		want := float64(100 + 10*rot)
		if got := w.QueryWindow(); got != want {
			t.Fatalf("after rotation %d: window = %v, want %v", rot, got, want)
		}
	}

	// Rotation slots: epoch 0 falls off the ring — its 100 items leave.
	w.Rotate()
	w.Drain()
	if got, want := w.QueryWindow(), float64(10*(slots-1)); got != want {
		t.Fatalf("after expiry rotation: window = %v, want %v (epoch 0 excluded)", got, want)
	}
	if w.Epoch() != slots {
		t.Fatalf("epoch = %d, want %d", w.Epoch(), slots)
	}
}

// TestWindowDuplicatesAcrossEpochs: the same item seen in several
// epochs counts once while any of them is live (Θ mergeability), and
// still counts after the older sighting expires.
func TestWindowDuplicatesAcrossEpochs(t *testing.T) {
	w := New(exactTheta(1), Config{Slots: 2, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	for i := 0; i < 50; i++ {
		wr.Update(uint64(i))
	}
	w.Drain()
	w.Rotate()
	for i := 0; i < 50; i++ {
		wr.Update(uint64(i)) // same items again, next epoch
	}
	w.Drain()
	if got := w.QueryWindow(); got != 50 {
		t.Fatalf("duplicated items window = %v, want 50", got)
	}
	w.Rotate() // epoch 0 expires; epoch 1 still holds all 50
	w.Drain()
	if got := w.QueryWindow(); got != 50 {
		t.Fatalf("after expiry: window = %v, want 50", got)
	}
}

// TestWindowWriterMigrationFlush: updates buffered in a writer's local
// slot when the epoch rotates are sealed into their own epoch by the
// rotation itself — not dropped, not misattributed to the new epoch,
// and visible right after it — and leave with that epoch.
func TestWindowWriterMigrationFlush(t *testing.T) {
	// BufferSize large enough that nothing hands off on its own.
	eng := theta.NewEngine(theta.ConcurrentConfig{K: 2048, Writers: 1, MaxError: 1, BufferSize: 256})
	w := New(eng, Config{Slots: 3, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	for i := 0; i < 40; i++ {
		wr.Update(uint64(i)) // stays in the local buffer
	}
	w.Rotate()              // seals epoch 0, flushing the 40 into it
	wr.Update(uint64(1000)) // the new epoch's first item
	wr.Flush()
	if got := w.QueryWindow(); got != 41 {
		t.Fatalf("window right after the rotation = %v, want 41 (the 40 sealed with epoch 0)", got)
	}
	w.Rotate()
	if got := w.QueryWindow(); got != 41 {
		t.Fatalf("window after the next rotation = %v, want 41", got)
	}
	// One more rotation expires epoch 0 (the 40); epoch 1 keeps 1000.
	w.Rotate()
	w.Drain()
	if got := w.QueryWindow(); got != 1 {
		t.Fatalf("window after epoch-0 expiry = %v, want 1", got)
	}
}

// TestWindowDrainRefreshesSealedAggregate: Drain's contract is that
// queries reflect all prior updates — including updates that were
// still buffered when their epoch sealed and only reach the sealed
// epoch's sketch through Drain's flush. The cached sealed aggregate
// must be rebuilt, not left stale until the next rotation.
func TestWindowDrainRefreshesSealedAggregate(t *testing.T) {
	eng := theta.NewEngine(theta.ConcurrentConfig{K: 2048, Writers: 1, MaxError: 1, BufferSize: 256})
	w := New(eng, Config{Slots: 4, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	for i := 0; i < 40; i++ {
		wr.Update(uint64(i)) // buffered, never handed off
	}
	w.Rotate() // epoch 0 seals without the 40
	w.Drain()  // flushes them into sealed epoch 0 AND republishes
	if got := w.QueryWindow(); got != 40 {
		t.Fatalf("window after Drain = %v, want 40", got)
	}
	if got := w.QueryWindowCached(); got != 40 {
		t.Fatalf("cached window after Drain = %v, want 40", got)
	}
}

// TestWindowCachedQuery: QueryWindowCached is the rotation-published
// snapshot — it lags the active epoch and catches up at the next
// rotation.
func TestWindowCachedQuery(t *testing.T) {
	w := New(exactTheta(1), Config{Slots: 4, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	if got := w.QueryWindowCached(); got != 0 {
		t.Fatalf("initial cached window = %v, want 0", got)
	}
	for i := 0; i < 30; i++ {
		wr.Update(uint64(i))
	}
	w.Drain()
	if got := w.QueryWindowCached(); got != 0 {
		t.Fatalf("cached window before rotation = %v, want 0 (stale by design)", got)
	}
	w.Rotate()
	if got := w.QueryWindowCached(); got != 30 {
		t.Fatalf("cached window after rotation = %v, want 30", got)
	}
}

// TestWindowCompactRoundTrip: the whole-window compact serializes,
// parses and answers the same query (the engine codec path).
func TestWindowCompactRoundTrip(t *testing.T) {
	eng := exactTheta(1)
	w := New(eng, Config{Slots: 3, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	for i := 0; i < 64; i++ {
		wr.Update(uint64(i))
	}
	w.Drain()
	w.Rotate()
	for i := 64; i < 96; i++ {
		wr.Update(uint64(i))
	}
	w.Drain()
	c := w.WindowCompact()
	data, err := eng.MarshalCompact(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := eng.UnmarshalCompact(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.QueryCompact(back); got != 96 {
		t.Fatalf("round-tripped window compact = %v, want 96", got)
	}
}

// TestWindowQuantiles drives the quantiles family through the ring:
// the window median tracks only in-window epochs.
func TestWindowQuantiles(t *testing.T) {
	eng := quantiles.NewEngine(quantiles.ConcurrentConfig{K: 128, Writers: 1})
	w := New(eng, Config{Slots: 2, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	for i := 0; i < 1000; i++ {
		wr.Update(1000) // epoch 0: all mass at 1000
	}
	w.Drain()
	w.Rotate()
	for i := 0; i < 1000; i++ {
		wr.Update(10) // epoch 1: all mass at 10
	}
	w.Drain()
	if med := w.QueryWindow().Quantile(0.5); med != 10 && med != 1000 {
		t.Fatalf("two-epoch median = %v, want 10 or 1000", med)
	}
	w.Rotate() // epoch 0 (the 1000s) expires
	w.Drain()
	s := w.QueryWindow()
	if min, max := s.Min(), s.Max(); min != 10 || max != 10 {
		t.Fatalf("post-expiry window range = [%v, %v], want [10, 10]", min, max)
	}
}

// TestWindowHLL drives the HLL family through the ring.
func TestWindowHLL(t *testing.T) {
	eng := hll.NewEngine(hll.ConcurrentConfig{Precision: 12, Writers: 1})
	w := New(eng, Config{Slots: 2, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	for i := 0; i < 2000; i++ {
		wr.Update(uint64(i))
	}
	w.Drain()
	if got := w.QueryWindow(); got < 1800 || got > 2200 {
		t.Fatalf("epoch-0 window = %v, want ~2000", got)
	}
	w.Rotate()
	w.Rotate() // epoch 0 expires
	w.Drain()
	if got := w.QueryWindow(); got != 0 {
		t.Fatalf("post-expiry window = %v, want 0", got)
	}
}

// TestWindowConcurrentWritersRotate races multiple writers against
// rotations and queries; run with -race. Counts are only loosely
// asserted (the window is defined up to the per-epoch relaxation).
func TestWindowConcurrentWritersRotate(t *testing.T) {
	const writers = 4
	eng := theta.NewEngine(theta.ConcurrentConfig{K: 4096, Writers: writers, MaxError: 1})
	w := New(eng, Config{Slots: 4, Width: time.Hour})
	defer w.Close()
	done := make(chan struct{})
	for wi := 0; wi < writers; wi++ {
		go func(wi int) {
			defer func() { done <- struct{}{} }()
			wr := w.Writer(wi)
			batch := make([]uint64, 128)
			for n := 0; n < 100; n++ {
				for j := range batch {
					batch[j] = uint64(wi*1_000_000 + n*128 + j)
				}
				wr.UpdateBatch(batch)
			}
			wr.Flush()
		}(wi)
	}
	for r := 0; r < 8; r++ {
		w.Rotate()
		_ = w.QueryWindow()
		_ = w.QueryWindowCached()
	}
	for i := 0; i < writers; i++ {
		<-done
	}
	// All ingestion happened within the last 8 rotations across 4
	// slots; the window holds whatever of it has not expired — just
	// assert queries keep working and the final drain is consistent.
	w.Drain()
	if got := w.QueryWindow(); got < 0 {
		t.Fatalf("window = %v, want >= 0", got)
	}
	if w.Epoch() != 8 {
		t.Fatalf("epoch = %d, want 8", w.Epoch())
	}
}

// TestWindowRecycledEpochStartsFlat: with the eager phase on, every
// epoch's sketch is flat — visible without a flush, off the pool — and
// a recycled sketch (Reset) starts from zero, not from its previous
// epoch's items.
func TestWindowRecycledEpochStartsFlat(t *testing.T) {
	eng := theta.NewEngine(theta.ConcurrentConfig{K: 2048, Writers: 1, MaxError: 0.1}) // eager limit 200
	w := New(eng, Config{Slots: 2, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	for e := 0; e < 4; e++ {
		if e > 0 {
			w.Rotate()
		}
		for i := 0; i < 10; i++ {
			wr.Update(uint64(100*e + i))
		}
		want := float64(10 * min(e+1, 2)) // slots = 2
		if got := w.QueryWindow(); got != want {
			t.Fatalf("epoch %d: window = %v without a flush, want %v", e, got, want)
		}
		if n := w.Pool().Sketches(); n != 0 {
			t.Fatalf("epoch %d: pool serves %d sketches, want 0", e, n)
		}
	}
	if w.Recycles() == 0 {
		t.Fatal("no epoch sketch was recycled; the test did not reach Reset")
	}
}

// TestRotateRecyclesExpiredSketch: every rotation seals the live
// sketch and Resets it in place for the next epoch; once the ring is
// full every rotation also drops one epoch. No hint is carried, and a
// recycled sketch must not leak its previous epoch's items.
func TestRotateRecyclesExpiredSketch(t *testing.T) {
	const slots = 3
	w := New(exactTheta(1), Config{Slots: slots, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)

	const perEpoch = 100
	next := uint64(0)
	for rot := 0; rot < 10; rot++ {
		for i := 0; i < perEpoch; i++ {
			wr.Update(next) // globally distinct: leakage would inflate counts
			next++
		}
		w.Drain()
		inWindow := perEpoch * min(rot+1, slots)
		if got := w.QueryWindow(); got != float64(inWindow) {
			t.Fatalf("rotation %d: window = %v, want %v", rot, got, inWindow)
		}
		w.Rotate()
	}
	// Ten rotations, each sealing an epoch of 100 items: ten resets.
	if got, want := w.Recycles(), int64(10); got != want {
		t.Fatalf("recycles = %d, want %d", got, want)
	}
	if got := w.HintCarries(); got != 0 {
		t.Fatalf("hint carries = %d, want 0", got)
	}
	if got, want := w.ExpiredEpochs(), int64(10-(slots-1)); got != want {
		t.Fatalf("expired = %d, want %d", got, want)
	}
}

// TestWindowUpdateZeroAllocs: the standalone Θ window's writer hashes
// into a scratch it keeps, so once warm neither Update nor UpdateBatch
// allocates. A flat window (MaxError 0.1 keeps it flat for 2/e² = 200
// updates) is fed repeated values, so the flat set does not grow; a
// concurrent one (no eager phase) a 512-value batch, over and over.
func TestWindowUpdateZeroAllocs(t *testing.T) {
	flatEng := theta.NewEngine(theta.ConcurrentConfig{K: 2048, Writers: 1, MaxError: 0.1})
	concEng := theta.NewEngine(theta.ConcurrentConfig{K: 256, Writers: 1, MaxError: 1})
	batch := make([]uint64, 512)
	for i := range batch {
		batch[i] = uint64(i)
	}
	for _, c := range []struct {
		name string
		eng  *theta.Engine
		warm int
		use  func(*Writer[uint64, float64, *theta.Compact])
	}{
		{"Update/flat", flatEng, 1, func(wr *Writer[uint64, float64, *theta.Compact]) { wr.Update(42) }},
		{"UpdateBatch/flat", flatEng, 1, func(wr *Writer[uint64, float64, *theta.Compact]) { wr.UpdateBatch(batch[:2]) }},
		{"UpdateBatch/concurrent", concEng, 8, func(wr *Writer[uint64, float64, *theta.Compact]) { wr.UpdateBatch(batch) }},
	} {
		w := New(c.eng, Config{Slots: 2, Width: time.Hour})
		wr := w.Writer(0)
		for range c.warm {
			c.use(wr)
		}
		wr.Flush()
		if avg := testing.AllocsPerRun(50, func() { c.use(wr) }); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, avg)
		}
		w.Close()
	}
}
