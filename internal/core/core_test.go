package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countGlobal is a deterministic composable sketch used to test the
// framework in isolation: its state is an exact update counter, so
// relaxation bounds can be checked precisely (this is the Θ sketch's
// "exact mode" in miniature). U = int64 increments, S = int64 total.
type countGlobal struct {
	total atomic.Int64
	// hintVal lets tests script CalcHint outputs.
	hintVal atomic.Uint64
	// filterBelow, when > 0, makes ShouldAdd reject updates < hint
	// (mimicking Θ pre-filtering with the hint as a threshold).
	filterOn bool
}

type countLocal struct{ n int64 }

func (l *countLocal) Update(u int64) { l.n += u }
func (l *countLocal) Reset()         { l.n = 0 }

func (g *countGlobal) Merge(l Local[int64]) {
	switch v := l.(type) {
	case *countLocal:
		g.total.Add(v.n)
	case *batchCountLocal:
		g.total.Add(v.n)
	default:
		panic("unknown local type")
	}
}
func (g *countGlobal) UpdateDirect(u int64) { g.total.Add(u) }
func (g *countGlobal) Snapshot() int64      { return g.total.Load() }
func (g *countGlobal) CalcHint() uint64     { return g.hintVal.Load() }
func (g *countGlobal) ShouldAdd(hint uint64, u int64) bool {
	if !g.filterOn {
		return true
	}
	return u >= int64(hint)
}

func newCounting(cfg Config) (*Sketch[int64, int64], *countGlobal) {
	g := &countGlobal{}
	g.hintVal.Store(1)
	s := New[int64, int64](g, func() Local[int64] { return &countLocal{} }, cfg)
	return s, g
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero writers": {Writers: 0, BufferSize: 1},
		"zero buffer":  {Writers: 1, BufferSize: 0},
		"neg writers":  {Writers: -1, BufferSize: 1},
		"neg buffer":   {Writers: 1, BufferSize: -2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			newCounting(cfg)
		}()
	}
}

func TestBufferSizeFor(t *testing.T) {
	tests := []struct {
		k       int
		e       float64
		writers int
		want    int
	}{
		{4096, 0.04, 12, 2}, // the paper's configuration (§7.1): "1 to 5"
		{4096, 0.04, 1, 25}, // single writer: exact-mode bound 1/(e·N)
		{256, 0.04, 12, 1},  // clamped up to 1
		{4096, 1.0, 1, 256}, // no error target: estimation bound, clamped
		{4096, 0, 4, 1},     // degenerate e
		{2, 0.5, 4, 1},      // degenerate k
	}
	for _, tc := range tests {
		if got := BufferSizeFor(tc.k, tc.e, tc.writers); got != tc.want {
			t.Errorf("BufferSizeFor(%d, %v, %d) = %d, want %d", tc.k, tc.e, tc.writers, got, tc.want)
		}
	}
}

func TestBufferSizeForPanicsOnBadWriters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for writers=0")
		}
	}()
	BufferSizeFor(4096, 0.04, 0)
}

func TestEagerLimitFor(t *testing.T) {
	tests := []struct {
		e    float64
		want int
	}{
		{0.04, 1250}, // the paper's 2/e² = 1250 (§7.1)
		{0.1, 200},
		{1.0, 0}, // "no eager" configuration
		{0, 0},
		{-1, 0},
	}
	for _, tc := range tests {
		if got := EagerLimitFor(tc.e); got != tc.want {
			t.Errorf("EagerLimitFor(%v) = %d, want %d", tc.e, got, tc.want)
		}
	}
}

// TestCommonConfigDefaultsResolveOnce: an engine resolves its config
// and every sketch it builds resolves it again, so a second pass must
// change nothing — in particular not turn "disabled" into "derived".
func TestCommonConfigDefaultsResolveOnce(t *testing.T) {
	for _, limit := range []int{-1, 0, 77} {
		once := CommonConfig{EagerLimit: limit}.WithDefaults(1250, 9)
		if twice := once.WithDefaults(1250, 9); twice != once {
			t.Errorf("EagerLimit %d: second pass changed %+v to %+v", limit, once, twice)
		}
		if (limit < 0) != (once.EagerLimit < 0) {
			t.Errorf("EagerLimit %d resolved to %d", limit, once.EagerLimit)
		}
	}
}

func TestSingleWriterFlushVisibility(t *testing.T) {
	s, _ := newCounting(Config{Writers: 1, BufferSize: 7, DoubleBuffering: true})
	defer s.Close()
	w := s.Writer(0)
	const n = 1000
	for i := 0; i < n; i++ {
		w.Update(1)
	}
	w.Flush()
	if got := s.Query(); got != n {
		t.Errorf("after flush: query = %d, want %d", got, n)
	}
}

func TestMultiWriterFlushVisibility(t *testing.T) {
	const writers, perWriter = 4, 10000
	s, _ := newCounting(Config{Writers: writers, BufferSize: 16, DoubleBuffering: true})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := s.Writer(i)
			for j := 0; j < perWriter; j++ {
				w.Update(1)
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
	if got := s.Query(); got != writers*perWriter {
		t.Errorf("query = %d, want %d", got, writers*perWriter)
	}
}

func TestRelaxationBoundWithoutFlush(t *testing.T) {
	// Theorem 1: a query misses at most r = 2Nb updates. After writers
	// stop (no flush) and the propagator quiesces, the only missing
	// updates are those still in local buffers — necessarily <= r.
	const writers, perWriter, b = 3, 5000, 8
	s, _ := newCounting(Config{Writers: writers, BufferSize: b, DoubleBuffering: true})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := s.Writer(i)
			for j := 0; j < perWriter; j++ {
				w.Update(1)
			}
		}(i)
	}
	wg.Wait()
	waitQuiesce(t, s)
	got := s.Query()
	total := int64(writers * perWriter)
	r := int64(s.Relaxation())
	if got > total {
		t.Errorf("query %d exceeds total updates %d", got, total)
	}
	if got < total-r {
		t.Errorf("query %d misses more than r=%d of %d updates", got, r, total)
	}
}

// waitQuiesce waits for the propagator to drain all handed-off buffers.
func waitQuiesce(t *testing.T, s *Sketch[int64, int64]) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev := int64(-1)
	for time.Now().Before(deadline) {
		cur := s.Propagations()
		q := s.Query()
		time.Sleep(10 * time.Millisecond)
		if cur == prev && q == s.Query() {
			return
		}
		prev = cur
	}
	t.Fatal("propagator did not quiesce")
}

func TestRelaxationReporting(t *testing.T) {
	s, _ := newCounting(Config{Writers: 3, BufferSize: 8, DoubleBuffering: true})
	if r := s.Relaxation(); r != 48 {
		t.Errorf("Relaxation (opt) = %d, want 2*3*8 = 48", r)
	}
	s.Close()
	s2, _ := newCounting(Config{Writers: 3, BufferSize: 8, DoubleBuffering: false})
	if r := s2.Relaxation(); r != 24 {
		t.Errorf("Relaxation (ParSketch) = %d, want 3*8 = 24", r)
	}
	s2.Close()
}

func TestEagerPhaseIsSequentiallyExact(t *testing.T) {
	// §5.3: during the eager phase every update is immediately visible,
	// i.e. the sketch behaves like the sequential one.
	const limit = 100
	s, _ := newCounting(Config{Writers: 2, BufferSize: 10, EagerLimit: limit, DoubleBuffering: true})
	defer s.Close()
	w := s.Writer(0)
	for i := int64(1); i <= limit; i++ {
		w.Update(1)
		if got := s.Query(); got != i {
			t.Fatalf("eager phase: after %d updates query = %d", i, got)
		}
	}
	if s.Eager() {
		t.Error("still eager after reaching the limit")
	}
}

func TestEagerToLazyTransition(t *testing.T) {
	const limit = 50
	s, _ := newCounting(Config{Writers: 1, BufferSize: 5, EagerLimit: limit, DoubleBuffering: true})
	defer s.Close()
	w := s.Writer(0)
	for i := 0; i < limit+100; i++ {
		w.Update(1)
	}
	w.Flush()
	if got := s.Query(); got != limit+100 {
		t.Errorf("after transition + flush: query = %d, want %d", got, limit+100)
	}
	if s.Propagations() == 0 {
		t.Error("no lazy propagations after eager phase ended")
	}
}

func TestEagerDisabled(t *testing.T) {
	s, _ := newCounting(Config{Writers: 1, BufferSize: 10, EagerLimit: 0, DoubleBuffering: true})
	defer s.Close()
	if s.Eager() {
		t.Error("eager phase active with EagerLimit = 0")
	}
	w := s.Writer(0)
	w.Update(1)
	if got := s.Query(); got != 0 {
		t.Errorf("lazy sketch showed update before propagation: %d", got)
	}
}

func TestEagerConcurrentWriters(t *testing.T) {
	// Multiple writers racing through the eager phase must not lose or
	// double-apply updates across the transition.
	const writers, perWriter = 4, 2000
	s, _ := newCounting(Config{Writers: writers, BufferSize: 16, EagerLimit: 1000, DoubleBuffering: true})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := s.Writer(i)
			for j := 0; j < perWriter; j++ {
				w.Update(1)
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
	if got := s.Query(); got != writers*perWriter {
		t.Errorf("query = %d, want %d (lost/duplicated updates across eager transition)", got, writers*perWriter)
	}
}

func TestParSketchMode(t *testing.T) {
	// Non-optimised variant: single buffer, writer blocks during merge.
	s, _ := newCounting(Config{Writers: 2, BufferSize: 4, DoubleBuffering: false})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := s.Writer(i)
			for j := 0; j < 5000; j++ {
				w.Update(1)
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
	if got := s.Query(); got != 10000 {
		t.Errorf("ParSketch query = %d, want 10000", got)
	}
}

func TestHintPiggybacking(t *testing.T) {
	// Line 115/127: the propagator piggybacks calcHint() on prop_i and
	// the writer adopts it at its next handoff.
	s, g := newCounting(Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
	defer s.Close()
	g.hintVal.Store(42)
	w := s.Writer(0)
	for i := 0; i < 20; i++ {
		w.Update(1)
	}
	w.Flush()
	if h := w.Hint(); h != 42 {
		t.Errorf("writer hint = %d, want 42", h)
	}
}

func TestZeroHintMappedToOne(t *testing.T) {
	// The paper requires hints != 0 (0 is the handoff signal); the
	// framework must sanitize a sketch that returns 0.
	s, g := newCounting(Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
	defer s.Close()
	g.hintVal.Store(0)
	w := s.Writer(0)
	for i := 0; i < 20; i++ {
		w.Update(1)
	}
	w.Flush()
	if h := w.Hint(); h != 1 {
		t.Errorf("writer hint = %d, want 1 (sanitized)", h)
	}
}

func TestShouldAddPreFiltering(t *testing.T) {
	// Filtered updates must never reach the global sketch and must not
	// count toward buffer fill.
	s, g := newCounting(Config{Writers: 1, BufferSize: 4, DoubleBuffering: true})
	defer s.Close()
	g.filterOn = true
	g.hintVal.Store(10) // ShouldAdd: u >= 10
	w := s.Writer(0)
	// Prime the writer's hint via one full buffer of passing updates.
	for i := 0; i < 8; i++ {
		w.Update(100)
	}
	w.Flush()
	if w.Hint() != 10 {
		t.Fatalf("hint = %d, want 10", w.Hint())
	}
	before := s.Query()
	for i := 0; i < 100; i++ {
		w.Update(5) // all filtered
	}
	w.Flush()
	if got := s.Query(); got != before {
		t.Errorf("filtered updates leaked into global: %d -> %d", before, got)
	}
	w.Update(100)
	w.Flush()
	if got := s.Query(); got != before+100 {
		t.Errorf("passing update lost after filtering: %d", got)
	}
}

func TestSnapshotMonotoneUnderConcurrency(t *testing.T) {
	// Strong-linearisability smoke test: for a monotone sketch
	// (counter), concurrent queries must never observe regression.
	s, _ := newCounting(Config{Writers: 2, BufferSize: 64, DoubleBuffering: true})
	defer s.Close()
	stop := make(chan struct{})
	var bad atomic.Int64
	var qwg sync.WaitGroup
	for q := 0; q < 2; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			var prev int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := s.Query()
				if cur < prev {
					bad.Add(1)
					return
				}
				prev = cur
				runtime.Gosched() // don't starve writers on small machines
			}
		}()
	}
	var wwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			w := s.Writer(i)
			for j := 0; j < 20000; j++ {
				w.Update(1)
			}
		}(i)
	}
	wwg.Wait()
	close(stop)
	qwg.Wait()
	if bad.Load() != 0 {
		t.Error("a query observed the counter going backwards")
	}
}

func TestPropagationsCounter(t *testing.T) {
	s, _ := newCounting(Config{Writers: 1, BufferSize: 10, DoubleBuffering: true})
	defer s.Close()
	w := s.Writer(0)
	for i := 0; i < 100; i++ {
		w.Update(1)
	}
	w.Flush()
	// 100 updates at b=10 → at least 10 handoffs (+1 partial possible).
	if p := s.Propagations(); p < 10 {
		t.Errorf("propagations = %d, want >= 10", p)
	}
}

func TestWriterIndexOutOfRangePanics(t *testing.T) {
	s, _ := newCounting(Config{Writers: 2, BufferSize: 2, DoubleBuffering: true})
	defer s.Close()
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Writer(%d) did not panic", i)
				}
			}()
			s.Writer(i)
		}()
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, _ := newCounting(Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
	s.Close()
	s.Close() // must not panic or deadlock
}

func TestCloseDrainsHandedOffBuffers(t *testing.T) {
	s, _ := newCounting(Config{Writers: 1, BufferSize: 5, DoubleBuffering: true})
	w := s.Writer(0)
	for i := 0; i < 50; i++ {
		w.Update(1)
	}
	// No flush: up to one handed-off buffer may still be pending; Close
	// must drain it rather than dropping it.
	s.Close()
	if got := s.Query(); got < 50-int64(s.Relaxation()) {
		t.Errorf("after close: query = %d, lost more than the relaxation", got)
	}
}

func TestUpdateAfterClosePanics(t *testing.T) {
	s, _ := newCounting(Config{Writers: 1, BufferSize: 1, DoubleBuffering: true})
	w := s.Writer(0)
	w.Update(1)
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("updates after Close did not panic")
		}
	}()
	// With b=1 every update hands off; the second handoff after close
	// can never complete and must panic loudly instead of spinning.
	for i := 0; i < 10; i++ {
		w.Update(1)
	}
}

func TestQueryIsWaitFreeUnderLoad(t *testing.T) {
	// A query must complete quickly even with writers saturating the
	// propagator — it is a single atomic read.
	s, _ := newCounting(Config{Writers: 2, BufferSize: 16, DoubleBuffering: true})
	defer s.Close()
	stop := make(chan struct{})
	var wwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			w := s.Writer(i)
			for {
				select {
				case <-stop:
					return
				default:
					w.Update(1)
				}
			}
		}(i)
	}
	start := time.Now()
	for i := 0; i < 1000; i++ {
		_ = s.Query()
	}
	elapsed := time.Since(start)
	close(stop)
	wwg.Wait()
	if elapsed > time.Second {
		t.Errorf("1000 queries took %v under write load", elapsed)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(8)
	if cfg.Writers != 8 || !cfg.DoubleBuffering || cfg.BufferSize <= 0 || cfg.EagerLimit != 1250 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
}
