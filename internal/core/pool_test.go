package core

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// newPooledCounting builds a counting sketch attached to a shared pool
// (the counting fixtures live in core_test.go / batch_test.go).
func newPooledCounting(pool *PropagatorPool, cfg Config) (*Sketch[int64, int64], *countGlobal) {
	cfg.Pool = pool
	return newCounting(cfg)
}

// TestPoolSharedAcrossSketches runs many sketches on one small pool and
// checks every sketch's total is exact after Flush + Close.
func TestPoolSharedAcrossSketches(t *testing.T) {
	pool := NewPropagatorPool(2)
	defer pool.Close()
	const sketches, updates = 32, 500
	sks := make([]*Sketch[int64, int64], sketches)
	for i := range sks {
		sks[i], _ = newPooledCounting(pool, Config{Writers: 1, BufferSize: 3, DoubleBuffering: true})
	}
	var wg sync.WaitGroup
	for _, s := range sks {
		wg.Add(1)
		go func(s *Sketch[int64, int64]) {
			defer wg.Done()
			w := s.Writer(0)
			for j := 0; j < updates; j++ {
				w.Update(1)
			}
			w.Flush()
		}(s)
	}
	wg.Wait()
	for i, s := range sks {
		if got := s.Query(); got != updates {
			t.Errorf("sketch %d: total = %d, want %d", i, got, updates)
		}
		s.Close()
	}
}

// TestPoolGoroutineCountIndependentOfSketches pins the tentpole
// property: attaching more sketches to a shared pool must not spawn
// more goroutines.
func TestPoolGoroutineCountIndependentOfSketches(t *testing.T) {
	pool := NewPropagatorPool(4)
	defer pool.Close()
	base := runtime.NumGoroutine()
	const sketches = 1000
	sks := make([]*Sketch[int64, int64], sketches)
	for i := range sks {
		sks[i], _ = newPooledCounting(pool, Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
	}
	// A generous slack of 8 absorbs unrelated runtime goroutines; the
	// point is that growth is O(1), not O(sketches).
	if got := runtime.NumGoroutine(); got > base+8 {
		t.Fatalf("goroutines grew from %d to %d after %d sketches; want O(1) growth", base, got, sketches)
	}
	for _, s := range sks {
		w := s.Writer(0)
		for j := 0; j < 10; j++ {
			w.Update(1)
		}
		w.Flush()
	}
	for i, s := range sks {
		if got := s.Query(); got != 10 {
			t.Errorf("sketch %d: total = %d, want 10", i, got)
		}
		s.Close()
	}
	if n := pool.Sketches(); n != 0 {
		t.Errorf("pool reports %d attached sketches after all closed, want 0", n)
	}
}

// TestPoolSketchCloseLeavesPoolServing closes one sketch and checks the
// pool still propagates for its siblings.
func TestPoolSketchCloseLeavesPoolServing(t *testing.T) {
	pool := NewPropagatorPool(1)
	defer pool.Close()
	a, _ := newPooledCounting(pool, Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
	b, _ := newPooledCounting(pool, Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
	wa := a.Writer(0)
	for i := 0; i < 100; i++ {
		wa.Update(1)
	}
	wa.Flush()
	a.Close()
	if got := a.Query(); got != 100 {
		t.Fatalf("closed sketch total = %d, want 100", got)
	}
	wb := b.Writer(0)
	for i := 0; i < 100; i++ {
		wb.Update(1)
	}
	wb.Flush()
	if got := b.Query(); got != 100 {
		t.Fatalf("sibling total = %d, want 100 after sibling close", got)
	}
	b.Close()
}

// TestPoolCloseIdempotent double-closes pools and pooled sketches.
func TestPoolCloseIdempotent(t *testing.T) {
	pool := NewPropagatorPool(2)
	s, _ := newPooledCounting(pool, Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
	s.Close()
	s.Close()
	pool.Close()
	pool.Close()
}

// TestPoolCloseDrainsPendingHandoffs hands off and closes immediately
// (no Flush): Close must still fold the handed-off buffer in.
func TestPoolCloseDrainsPendingHandoffs(t *testing.T) {
	pool := NewPropagatorPool(1)
	defer pool.Close()
	s, _ := newPooledCounting(pool, Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
	w := s.Writer(0)
	w.Update(1)
	w.Update(1) // fills the buffer: handoff enqueued
	s.Close()   // no Flush: Close's drain + scan must pick it up
	if got := s.Query(); got != 2 {
		t.Fatalf("total after Close = %d, want 2", got)
	}
}

// TestPoolFullScanOnlyOnClose extends the queue-driven pin to shared
// pools: exactly one full slot scan, at Close.
func TestPoolFullScanOnlyOnClose(t *testing.T) {
	pool := NewPropagatorPool(2)
	defer pool.Close()
	s, _ := newPooledCounting(pool, Config{Writers: 4, BufferSize: 2, DoubleBuffering: true})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := s.Writer(i)
			for j := 0; j < 200; j++ {
				w.Update(1)
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
	if got := s.fullScans.Load(); got != 0 {
		t.Errorf("full scans before Close = %d, want 0", got)
	}
	s.Close()
	if got := s.fullScans.Load(); got != 1 {
		t.Errorf("full scans after Close = %d, want 1", got)
	}
	if got := s.Query(); got != 800 {
		t.Errorf("total = %d, want 800", got)
	}
}

// noopTask is an inert propagable for queue mechanics tests.
type noopTask struct{}

func (noopTask) runPropagation() {}

// TestPoolWorkerQueueShrinksAfterBurst pins the compaction satellite:
// the shared run queue, once it absorbed a large burst, drops its
// backing array when it drains, so idle pools do not pin burst-sized
// slices.
func TestPoolWorkerQueueShrinksAfterBurst(t *testing.T) {
	var p PropagatorPool // no workers: pop is driven by hand
	const burst = 4 * maxIdleCap
	for i := 0; i < burst; i++ {
		p.runq = append(p.runq, noopTask{})
	}
	for i := 0; i < burst; i++ {
		if p.pop() == nil {
			t.Fatalf("pop %d: queue empty early", i)
		}
	}
	if p.pop() != nil {
		t.Fatal("queue should be empty")
	}
	if c := cap(p.runq); c > maxIdleCap {
		t.Errorf("retained capacity %d after burst drain, want <= %d", c, maxIdleCap)
	}
}

// TestPoolHotSketchDoesNotStarveSiblings drives one multi-writer
// sketch hard on a single-worker pool while a sibling flushes; the
// sibling must make progress in bounded time because a sketch's drain
// is bounded per run and a re-scheduled sketch goes to the tail of
// the run queue. (Two hot writers with b=1 can refill the pending
// queue as fast as it drains, so an unbounded drain would capture the
// only worker forever.)
func TestPoolHotSketchDoesNotStarveSiblings(t *testing.T) {
	pool := NewPropagatorPool(1)
	defer pool.Close()
	const hotWriters = 2
	hot, _ := newPooledCounting(pool, Config{Writers: hotWriters, BufferSize: 1, DoubleBuffering: true})
	cold, _ := newPooledCounting(pool, Config{Writers: 1, BufferSize: 1, DoubleBuffering: true})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < hotWriters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := hot.Writer(i)
			for {
				select {
				case <-stop:
					w.Flush()
					return
				default:
					w.Update(1)
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		w := cold.Writer(0)
		for i := 0; i < 100; i++ {
			w.Update(1)
		}
		w.Flush()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cold sketch starved: Flush did not complete in 10s")
	}
	close(stop)
	wg.Wait()
	if got := cold.Query(); got != 100 {
		t.Errorf("cold total = %d, want 100", got)
	}
	hot.Close()
	cold.Close()
}

// TestPoolParkWakeRace races submits against workers going idle: 64
// sketches each hand off and Flush in a loop on pools of 1, 2 and 4
// workers, in phases. Within a phase workers keep emptying the run
// queue, yielding and parking while handoffs arrive; between phases
// every worker parks, so the next phase's first submits must wake one.
// A submit that lands while a worker is between its last empty check
// and its park must still be run — by that worker on its re-check or by
// a signalled one — or the Flush waiting on it never returns and the
// deadline fails the test.
func TestPoolParkWakeRace(t *testing.T) {
	const sketches, phases, rounds = 64, 10, 20
	for _, workers := range []int{1, 2, 4} {
		pool := NewPropagatorPool(workers)
		sks := make([]*Sketch[int64, int64], sketches)
		for i := range sks {
			sks[i], _ = newPooledCounting(pool, Config{Writers: 1, BufferSize: 1, DoubleBuffering: true})
		}
		deadline := time.After(10 * time.Second)
		for ph := 0; ph < phases; ph++ {
			for pool.Parked() != workers {
				select {
				case <-deadline:
					t.Fatalf("%d workers, phase %d: %d parked while idle", workers, ph, pool.Parked())
				default:
					runtime.Gosched()
				}
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			for _, s := range sks {
				wg.Add(1)
				go func(w *Writer[int64, int64]) {
					defer wg.Done()
					for j := 0; j < rounds; j++ {
						w.Update(1) // b=1: a handoff
						w.Flush()
					}
				}(s.Writer(0))
			}
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-deadline:
				t.Fatalf("%d workers, phase %d: a Flush did not return in 10s (a submitted sketch was never run)", workers, ph)
			}
		}
		for i, s := range sks {
			if got := s.Query(); got != phases*rounds {
				t.Errorf("%d workers, sketch %d: total = %d, want %d", workers, i, got, phases*rounds)
			}
			s.Close()
		}
		pool.Close()
	}
}
