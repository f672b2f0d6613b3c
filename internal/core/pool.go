package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// PropagatorPool is a fixed-size pool of propagator goroutines serving
// any number of concurrent sketches. The paper dedicates one propagator
// thread t_0 per sketch, which is the right trade for a handful of
// sketches but collapses for keyed workloads that instantiate one
// sketch per key (millions of keys would mean millions of goroutines).
// The pool decouples the population of sketches from the set of
// executors — a fixed scheduler pool drives a parameterised population
// of sketch "processes" — so a table with 1M keys propagates on
// GOMAXPROCS goroutines.
//
// Scheduling is one FIFO run queue shared by every worker: a submit
// appends the sketch and signals a parked worker, and any idle worker
// takes the next sketch, so a stalled worker strands nothing.
//
// The framework's invariant that at most one goroutine merges into a
// given global sketch at a time rests on the sketch, not the queue:
// each sketch carries a private MPSC queue of handed-off writer ids
// plus a scheduled flag, and enters the run queue only on the
// idle-to-scheduled transition. A worker that dequeues a sketch drains
// at most N of its handoffs, then clears the flag; if a handoff raced
// the drain, the sketch re-enters at the tail of the run queue, which
// keeps one hot sketch from starving the others.
//
// A standalone Sketch owns a pool of size one, reproducing the paper's
// dedicated-propagator semantics exactly (same merge order, same
// Flush/Close behaviour, same r = 2·N·b relaxation bound).
type PropagatorPool struct {
	ws   []poolWorker
	done sync.WaitGroup

	// mu guards runq, head and closing; idle workers park on cond.
	mu   sync.Mutex
	cond sync.Cond
	runq []propagable
	head int
	// closing makes workers exit once the run queue is empty.
	closing bool
	// parked counts workers waiting on cond (written under mu, read
	// lock-free by Parked); submit signals only when it is nonzero.
	parked atomic.Int32
	// sketches counts attached sketches (observability + tests).
	sketches atomic.Int64
}

// maxIdleCap bounds the run-queue capacity retained across idle
// periods: a queue that absorbed a burst of thousands of scheduled
// sketches drops its backing array once it drains, instead of pinning
// the burst-sized slice for the pool's lifetime.
const maxIdleCap = 256

// poolWorker is one propagator goroutine's counters: the propagation
// runs it executed and its wake-ups from a park.
type poolWorker struct {
	runs  atomic.Int64
	wakes atomic.Int64
}

// propagable is a scheduled unit of propagation work: a sketch with a
// non-empty private handoff queue.
type propagable interface {
	// runPropagation drains the sketch's private handoff queue. It is
	// never invoked concurrently for the same sketch (the scheduled
	// flag serialises it).
	runPropagation()
}

// NewPropagatorPool starts a pool with the given number of propagator
// goroutines; workers <= 0 means GOMAXPROCS. Close it after every
// attached sketch is closed.
func NewPropagatorPool(workers int) *PropagatorPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &PropagatorPool{ws: make([]poolWorker, workers)}
	p.cond.L = &p.mu
	p.done.Add(workers)
	for i := range p.ws {
		go p.worker(&p.ws[i])
	}
	return p
}

// Workers returns the number of propagator goroutines.
func (p *PropagatorPool) Workers() int { return len(p.ws) }

// Sketches returns the number of sketches currently attached. A keyed
// Θ table attaches a key only when it leaves its eager phase, so for a
// table-owned pool the table's Keys() minus Sketches() is the number
// of keys still flat.
func (p *PropagatorPool) Sketches() int64 { return p.sketches.Load() }

// Parked returns the number of workers currently parked.
func (p *PropagatorPool) Parked() int { return int(p.parked.Load()) }

// WorkerStats is one worker's scheduling counters.
type WorkerStats struct {
	// Depth is the shared run queue's length (scheduled, not yet run),
	// the same in every worker's entry.
	Depth int
	// Stolen always reads 0: there are no per-worker queues to steal
	// from. It is kept only because the benchmark harness reads it.
	Stolen int64
	// Runs counts propagation runs this worker executed.
	Runs int64
	// Wakes counts the times this worker was woken from a park.
	Wakes int64
}

// Stats returns a snapshot of every worker's counters, indexed by
// worker.
func (p *PropagatorPool) Stats() []WorkerStats {
	depth := p.depth()
	out := make([]WorkerStats, len(p.ws))
	for i := range p.ws {
		out[i] = WorkerStats{Depth: depth, Runs: p.ws[i].runs.Load(), Wakes: p.ws[i].wakes.Load()}
	}
	return out
}

// depth returns the run queue's length: sketches scheduled, not yet
// taken by a worker.
func (p *PropagatorPool) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.runq) - p.head
}

// attach registers a sketch.
func (p *PropagatorPool) attach() { p.sketches.Add(1) }

// detach unregisters a sketch attached with attach.
func (p *PropagatorPool) detach() { p.sketches.Add(-1) }

// Close runs every scheduled sketch and stops the workers. All
// attached sketches must have stopped handing off (their writers
// quiescent or the sketches closed) before Close is called. Close is
// idempotent.
func (p *PropagatorPool) Close() {
	p.mu.Lock()
	closing := p.closing
	p.closing = true
	p.mu.Unlock()
	if !closing {
		p.cond.Broadcast()
		p.done.Wait()
	}
}

// submit schedules a sketch for propagation. Called exactly once per
// idle-to-scheduled transition, so each sketch occupies at most one
// run-queue slot.
func (p *PropagatorPool) submit(t propagable) {
	p.mu.Lock()
	p.runq = append(p.runq, t)
	parked := p.parked.Load() != 0
	p.mu.Unlock()
	if parked {
		p.cond.Signal()
	}
}

// pop removes the head of the run queue, or returns nil when empty. An
// emptied queue resets — and, after a burst, drops — its backing
// array. The caller holds mu.
func (p *PropagatorPool) pop() propagable {
	if p.head == len(p.runq) {
		if cap(p.runq) > maxIdleCap {
			p.runq = nil
		} else {
			p.runq = p.runq[:0]
		}
		p.head = 0
		return nil
	}
	t := p.runq[p.head]
	p.runq[p.head] = nil // release for GC
	p.head++
	// Compact once the dead prefix dominates: a queue that never goes
	// fully idle would otherwise append past the prefix forever. The
	// shrink-on-empty above handles burst-sized capacity; compaction
	// here only slides the live suffix down.
	if p.head > 64 && p.head*2 >= len(p.runq) {
		n := copy(p.runq, p.runq[p.head:])
		clear(p.runq[n:])
		p.runq = p.runq[:n]
		p.head = 0
	}
	return t
}

// worker is one propagator goroutine: it runs scheduled sketches until
// the pool is closing and the run queue is empty. On an empty queue it
// first yields once and re-checks — a writer about to hand off usually
// does so within a scheduler slice, and catching it saves a park and a
// wake — and only then parks, the queue checked under mu, so a submit
// either finds it counted in parked or is seen by a re-check.
func (p *PropagatorPool) worker(w *poolWorker) {
	defer p.done.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		t := p.pop()
		if t == nil && !p.closing {
			p.mu.Unlock()
			runtime.Gosched()
			p.mu.Lock()
			if t = p.pop(); t == nil && !p.closing {
				p.parked.Add(1)
				p.cond.Wait()
				p.parked.Add(-1)
				w.wakes.Add(1)
				continue
			}
		}
		if t == nil {
			return // closing, and nothing left to run
		}
		p.mu.Unlock()
		t.runPropagation()
		w.runs.Add(1)
		p.mu.Lock()
	}
}
