package core

import (
	"sync"
	"testing"
)

// batchCountLocal is a countLocal that also implements BatchLocal and
// records how it was fed, so tests can assert the batch path uses bulk
// appends instead of per-item interface calls.
type batchCountLocal struct {
	n          int64
	itemCalls  int
	sliceCalls int
}

func (l *batchCountLocal) Update(u int64) { l.n += u; l.itemCalls++ }
func (l *batchCountLocal) UpdateSlice(us []int64) {
	l.sliceCalls++
	for _, u := range us {
		l.n += u
	}
}
func (l *batchCountLocal) Reset() { l.n = 0 }

// newBatchCounting returns the sketch, its global, and a pointer to
// the list of locals created so far — locals are allocated lazily on
// first buffered use, so the list must be read through the pointer
// after the test has driven updates.
func newBatchCounting(cfg Config) (*Sketch[int64, int64], *countGlobal, *[]*batchCountLocal) {
	g := &countGlobal{}
	g.hintVal.Store(1)
	locals := &[]*batchCountLocal{}
	s := New[int64, int64](g, func() Local[int64] {
		l := &batchCountLocal{}
		*locals = append(*locals, l)
		return l
	}, cfg)
	return s, g, locals
}

func ones(n int) []int64 {
	us := make([]int64, n)
	for i := range us {
		us[i] = 1
	}
	return us
}

// TestUpdateBatchEquivalence checks that UpdateBatchPrefiltered is
// observably identical to calling Update element by element (on a
// sketch that filters nothing), across batch sizes that undershoot,
// exactly hit, and span multiple buffer boundaries.
func TestUpdateBatchEquivalence(t *testing.T) {
	for _, batchLen := range []int{1, 3, 8, 17, 100} {
		s, _, _ := newBatchCounting(Config{Writers: 1, BufferSize: 8, DoubleBuffering: true})
		w := s.Writer(0)
		const batches = 7
		for i := 0; i < batches; i++ {
			w.UpdateBatchPrefiltered(ones(batchLen))
		}
		w.Flush()
		if got, want := s.Query(), int64(batches*batchLen); got != want {
			t.Errorf("batchLen=%d: total = %d, want %d", batchLen, got, want)
		}
		s.Close()
	}
}

// TestUpdateBatchUsesBatchLocal asserts the batch path fills a
// BatchLocal with bulk UpdateSlice calls, not per-item Updates.
func TestUpdateBatchUsesBatchLocal(t *testing.T) {
	s, _, locals := newBatchCounting(Config{Writers: 1, BufferSize: 8, DoubleBuffering: true})
	w := s.Writer(0)
	w.UpdateBatchPrefiltered(ones(64))
	w.Flush()
	s.Close()
	items, slices := 0, 0
	for _, l := range *locals {
		items += l.itemCalls
		slices += l.sliceCalls
	}
	if items != 0 {
		t.Errorf("batch path made %d per-item Update calls, want 0", items)
	}
	if slices == 0 {
		t.Error("batch path never called UpdateSlice")
	}
	if got := s.Query(); got != 64 {
		t.Errorf("total = %d, want 64", got)
	}
}

// TestUpdateBatchEagerTransition spans the eager-to-lazy switch inside
// a single batch: the eager prefix must be applied directly and the
// remainder must flow through the buffers, with nothing lost.
func TestUpdateBatchEagerTransition(t *testing.T) {
	s, _, _ := newBatchCounting(Config{
		Writers: 1, BufferSize: 4, EagerLimit: 10, DoubleBuffering: true,
	})
	w := s.Writer(0)
	w.UpdateBatchPrefiltered(ones(25)) // 10 eager + 15 lazy
	if s.Eager() {
		t.Error("still eager after exceeding EagerLimit in one batch")
	}
	w.Flush()
	s.Close()
	if got := s.Query(); got != 25 {
		t.Errorf("total = %d, want 25", got)
	}
}

// TestUpdateBatchParSketch exercises the batch path without double
// buffering (the ablation mode, where handoff blocks on propagation).
func TestUpdateBatchParSketch(t *testing.T) {
	s, _, _ := newBatchCounting(Config{Writers: 2, BufferSize: 3, DoubleBuffering: false})
	w := s.Writer(0)
	w.UpdateBatchPrefiltered(ones(50))
	w.Flush()
	s.Close()
	if got := s.Query(); got != 50 {
		t.Errorf("total = %d, want 50", got)
	}
}

// TestPropagatorIsQueueDriven pins the tentpole property: per-handoff
// wakeups merge exactly the handed-off slot and never rescan all N
// writer slots. Only the Close drain performs a full scan.
func TestPropagatorIsQueueDriven(t *testing.T) {
	s, _, _ := newBatchCounting(Config{Writers: 8, BufferSize: 2, DoubleBuffering: true})
	w := s.Writer(0)
	const updates = 1000 // 500 handoffs from one writer
	w.UpdateBatchPrefiltered(ones(updates))
	w.Flush()
	if got := s.fullScans.Load(); got != 0 {
		t.Errorf("propagator performed %d full scans before Close, want 0", got)
	}
	if p := s.Propagations(); p < updates/2 {
		t.Errorf("propagations = %d, want >= %d (one per handoff)", p, updates/2)
	}
	s.Close()
	if got := s.fullScans.Load(); got != 1 {
		t.Errorf("full scans after Close = %d, want exactly 1 (the drain)", got)
	}
	if got := s.Query(); got != updates {
		t.Errorf("total = %d, want %d", got, updates)
	}
}

// TestHandoffQueueManyWriters drives all writers concurrently through
// the queue and checks nothing is lost or double-merged.
func TestHandoffQueueManyWriters(t *testing.T) {
	const writers, perWriter = 8, 5000
	s, _, _ := newBatchCounting(Config{Writers: writers, BufferSize: 3, DoubleBuffering: true})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := s.Writer(i)
			for sent := 0; sent < perWriter; sent += 100 {
				w.UpdateBatchPrefiltered(ones(100))
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
	if got, want := s.Query(), int64(writers*perWriter); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
	if got := s.fullScans.Load(); got != 0 {
		t.Errorf("full scans before Close = %d, want 0", got)
	}
	s.Close()
}
