//go:build goexperiment.synctest

package core

import (
	"testing"
	"testing/synctest"
)

// These tests run under Go's synctest bubble (GOEXPERIMENT=synctest,
// Go 1.24): goroutine scheduling and time are virtualised, so
// propagator timing and shutdown interleavings that are probabilistic
// under the real scheduler become deterministic — synctest.Wait blocks
// until every goroutine in the bubble is durably idle, giving an exact
// quiescence point instead of a sleep.

// TestSynctestPoolDrainOnClose pins the shutdown contract: buffers
// handed off before Close are merged by the pool drain, deterministic
// under the virtual scheduler.
func TestSynctestPoolDrainOnClose(t *testing.T) {
	synctest.Run(func() {
		pool := NewPropagatorPool(2)
		const sketches = 8
		sks := make([]*Sketch[int64, int64], sketches)
		for i := range sks {
			sks[i], _ = newPooledCounting(pool, Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
		}
		for _, s := range sks {
			w := s.Writer(0)
			w.Update(1)
			w.Update(1) // buffer full: handoff enqueued, not flushed
		}
		// No Flush: Close alone must drain the handed-off buffers.
		for i, s := range sks {
			s.Close()
			if got := s.Query(); got != 2 {
				t.Errorf("sketch %d: total after Close = %d, want 2", i, got)
			}
			if got := s.fullScans.Load(); got != 1 {
				t.Errorf("sketch %d: full scans = %d, want exactly 1 (the Close drain)", i, got)
			}
		}
		pool.Close()
	})
}

// TestSynctestOwnedPoolDrainOnClose covers the dedicated-propagator
// default (pool of one) under the virtual scheduler.
func TestSynctestOwnedPoolDrainOnClose(t *testing.T) {
	synctest.Run(func() {
		s, _ := newCounting(Config{Writers: 4, BufferSize: 2, DoubleBuffering: true})
		for i := 0; i < 4; i++ {
			w := s.Writer(i)
			w.Update(1)
			w.Update(1)
		}
		s.Close()
		if got := s.Query(); got != 8 {
			t.Errorf("total after Close = %d, want 8", got)
		}
	})
}

// TestSynctestStarvationFairness runs many sketches on a single
// propagator worker: every sketch's handoffs must propagate — a
// re-scheduled hot sketch goes to the run-queue tail, so with the
// virtual scheduler each Flush completes deterministically even
// though one worker serves all sketches.
func TestSynctestStarvationFairness(t *testing.T) {
	synctest.Run(func() {
		pool := NewPropagatorPool(1)
		const sketches, perSketch = 16, 200
		sks := make([]*Sketch[int64, int64], sketches)
		for i := range sks {
			sks[i], _ = newPooledCounting(pool, Config{Writers: 1, BufferSize: 1, DoubleBuffering: true})
		}
		done := make(chan int, sketches)
		for i, s := range sks {
			go func(i int, s *Sketch[int64, int64]) {
				w := s.Writer(0)
				for j := 0; j < perSketch; j++ {
					w.Update(1) // b=1: every update is a handoff
				}
				w.Flush()
				done <- i
			}(i, s)
		}
		// Every writer's Flush returns: nobody starved. synctest fails
		// the bubble with a deadlock report if the single worker ever
		// stops serving some sketch.
		for range sks {
			<-done
		}
		synctest.Wait()
		for i, s := range sks {
			if got := s.Query(); got != perSketch {
				t.Errorf("sketch %d: total = %d, want %d", i, got, perSketch)
			}
			if p := s.Propagations(); p < perSketch {
				t.Errorf("sketch %d: %d propagations, want >= %d (b=1)", i, p, perSketch)
			}
			s.Close()
		}
		pool.Close()
	})
}

// blockingTask is a propagable that holds its worker until released —
// the deterministic "stalled worker" fixture.
type blockingTask struct {
	started chan struct{}
	release chan struct{}
}

func newBlockingTask() *blockingTask {
	return &blockingTask{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingTask) runPropagation() {
	close(b.started)
	<-b.release
}

// TestSynctestStalledWorkerStrandsNothing: a sketch's handoffs are
// merged while one of two workers is stalled inside a propagation —
// the idle worker takes the sketch from the shared run queue. If
// scheduled work could wait on the stalled worker, the Flush below
// would spin forever.
func TestSynctestStalledWorkerStrandsNothing(t *testing.T) {
	synctest.Run(func() {
		pool := NewPropagatorPool(2)
		synctest.Wait() // both workers durably parked
		bt := newBlockingTask()
		pool.submit(bt)
		<-bt.started // one worker stalled
		s, _ := newPooledCounting(pool, Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
		w := s.Writer(0)
		w.Update(1)
		w.Update(1) // handoff queued while one worker is stalled
		w.Flush()   // completes only if the other worker runs it
		if got := s.Query(); got != 2 {
			t.Errorf("total = %d, want 2", got)
		}
		close(bt.release)
		s.Close()
		pool.Close()
	})
}

// TestSynctestCloseDrainsPerWorkerQueues stalls every worker, queues
// handoffs on the shared run queue, then releases and closes: every
// queued entry must be merged — shutdown drops nothing — and the pool
// ends with an empty queue.
func TestSynctestCloseDrainsPerWorkerQueues(t *testing.T) {
	synctest.Run(func() {
		const workers, sketches = 2, 8
		pool := NewPropagatorPool(workers)
		synctest.Wait() // workers durably parked
		// Stall both workers so submitted work provably sits in the
		// run queue.
		bts := make([]*blockingTask, workers)
		for i := range bts {
			bts[i] = newBlockingTask()
			pool.submit(bts[i])
			<-bts[i].started
		}
		sks := make([]*Sketch[int64, int64], sketches)
		for i := range sks {
			sks[i], _ = newPooledCounting(pool, Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
			w := sks[i].Writer(0)
			w.Update(1)
			w.Update(1) // buffer full: handoff queued, workers stalled
		}
		for i, st := range pool.Stats() {
			if st.Depth != sketches {
				t.Errorf("worker %d: queue depth = %d, want %d", i, st.Depth, sketches)
			}
		}
		for _, bt := range bts {
			close(bt.release)
		}
		// No Flush: sketch Close must wait out the queued handoffs.
		for i, s := range sks {
			s.Close()
			if got := s.Query(); got != 2 {
				t.Errorf("sketch %d: total after Close = %d, want 2", i, got)
			}
		}
		pool.Close()
		for i, st := range pool.Stats() {
			if st.Depth != 0 {
				t.Errorf("worker %d: depth %d after pool Close, want 0", i, st.Depth)
			}
		}
	})
}

// TestSynctestCloseWhileSiblingIngests interleaves one sketch's Close
// with a sibling's ingestion on the same pool, deterministically: the
// closing sketch's drain must not stall behind the busy sibling.
func TestSynctestCloseWhileSiblingIngests(t *testing.T) {
	synctest.Run(func() {
		pool := NewPropagatorPool(1)
		busy, _ := newPooledCounting(pool, Config{Writers: 1, BufferSize: 1, DoubleBuffering: true})
		idle, _ := newPooledCounting(pool, Config{Writers: 1, BufferSize: 2, DoubleBuffering: true})
		stop := make(chan struct{})
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			w := busy.Writer(0)
			for {
				select {
				case <-stop:
					w.Flush()
					return
				default:
					w.Update(1)
				}
			}
		}()
		w := idle.Writer(0)
		w.Update(1)
		w.Update(1) // handoff enqueued behind the busy sketch's traffic
		idle.Close()
		if got := idle.Query(); got != 2 {
			t.Errorf("idle total after Close = %d, want 2", got)
		}
		close(stop)
		<-finished
		busy.Close()
		pool.Close()
	})
}
