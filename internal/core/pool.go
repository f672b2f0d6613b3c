package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
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
// Scheduling is shard-affine, in the style of Go's own runtime: every
// worker owns a private run queue, and each sketch is pinned to one
// worker at attach time — by its affinity key when it has one (keyed
// tables derive the key from the key hash, so a key's global sketch is
// always merged by the same worker and stays hot in that worker's
// cache, across epoch rotations included), round-robin otherwise. A
// submit enqueues the sketch on its home worker's queue and wakes that
// worker; when the home queue backs up or the home worker is already
// signalled, one parked sibling is woken to steal. Idle workers steal
// one sketch at a time from sibling queues (bounded: a single pass over
// the victims per attempt), so a stalled or overloaded worker never
// strands scheduled work while others are idle.
//
// Liveness does not depend on stealing: every submit leaves a wake
// token with the home worker, and a worker drains its own queue before
// parking, so any scheduled sketch is eventually run by its home worker
// even if no steal ever happens. Stealing only shortens the wait.
//
// The framework's invariant that at most one goroutine merges into a
// given global sketch at a time is preserved exactly as before: each
// sketch carries a private MPSC queue of handed-off writer ids plus a
// scheduled flag, and enters its home run queue only on the
// idle-to-scheduled transition. A worker that dequeues a sketch drains
// that sketch's private queue, then clears the flag; if a handoff raced
// the drain, the sketch re-enters at the tail of its home queue, which
// keeps one hot sketch from starving the others.
//
// A standalone Sketch owns a pool of size one, reproducing the paper's
// dedicated-propagator semantics exactly (same merge order, same
// Flush/Close behaviour, same r = 2·N·b relaxation bound).
type PropagatorPool struct {
	ws   []poolWorker
	stop chan struct{}
	done sync.WaitGroup

	closed atomic.Bool
	// sketches counts attached sketches (observability + tests).
	sketches atomic.Int64
	// parked counts workers currently parked on their wake channel; it
	// gates the sibling-wake scan so a saturated pool (nothing parked)
	// pays one load per submit, not an O(workers) flag sweep.
	parked atomic.Int32
	// nextID hands out round-robin worker assignments (and affinity
	// tokens) to sketches attached without an explicit affinity key.
	nextID atomic.Uint64
	// steals counts cross-queue steals pool-wide.
	steals atomic.Int64
}

// maxIdleCap bounds the run-queue capacity a worker retains across idle
// periods: a queue that absorbed a burst of thousands of scheduled
// sketches drops its backing array once it drains, instead of pinning
// the burst-sized slice for the pool's lifetime.
const maxIdleCap = 256

// poolWorker is one propagator goroutine's scheduling state: a private
// FIFO of scheduled sketches plus a one-token wake channel.
type poolWorker struct {
	mu   sync.Mutex
	runq []propagable
	head int

	// wake carries at most one token; submit never blocks.
	wake chan struct{}
	// parked is set while the worker sleeps on wake with an empty
	// queue; submit uses it to pick a stealing sibling. Best-effort
	// only — liveness rests on the home worker's wake token. Whoever
	// clears it (the worker on wake-up, or a submitter's CAS) also
	// decrements the pool's parked counter.
	parked atomic.Bool

	// stolen counts sketches this worker stole from siblings; runs
	// counts propagation runs it executed (own + stolen); wakes counts
	// wake tokens deposited on this worker by submits and sibling
	// nudges (park/unpark churn, distinct from runs).
	stolen atomic.Int64
	runs   atomic.Int64
	wakes  atomic.Int64

	// Pad the struct to a multiple of 128 bytes (two cache lines on
	// common hardware) so adjacent workers' hot fields — this one's
	// run counters, the next one's queue mutex — never share a line.
	// The compile-time assertion below keeps the pad honest.
	_ [48]byte
}

// Compile-time check that poolWorker fills whole 128-byte blocks (the
// index is constant: non-zero remainder fails to compile).
var _ = [1]struct{}{}[unsafe.Sizeof(poolWorker{})%128]

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
	p := &PropagatorPool{
		ws:   make([]poolWorker, workers),
		stop: make(chan struct{}),
	}
	for i := range p.ws {
		p.ws[i].wake = make(chan struct{}, 1)
	}
	p.done.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
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

// Steals returns the pool-wide count of cross-queue steals: sketches
// run by a worker other than their home worker.
func (p *PropagatorPool) Steals() int64 { return p.steals.Load() }

// Parked returns the number of workers currently parked on their wake
// channel.
func (p *PropagatorPool) Parked() int { return int(p.parked.Load()) }

// WorkerStats is one worker's scheduling counters.
type WorkerStats struct {
	// Depth is the current run-queue length (scheduled, not yet run).
	Depth int
	// Stolen counts sketches this worker stole from sibling queues.
	Stolen int64
	// Runs counts propagation runs this worker executed.
	Runs int64
	// Wakes counts wake tokens deposited on this worker (submits to
	// its queue plus sibling steal nudges).
	Wakes int64
}

// Stats returns a snapshot of every worker's depth/steal/run counters,
// indexed by worker.
func (p *PropagatorPool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.ws))
	for i := range p.ws {
		w := &p.ws[i]
		w.mu.Lock()
		depth := len(w.runq) - w.head
		w.mu.Unlock()
		out[i] = WorkerStats{Depth: depth, Stolen: w.stolen.Load(), Runs: w.runs.Load(), Wakes: w.wakes.Load()}
	}
	return out
}

// attach registers a sketch and returns its home worker. A zero
// affinity key means "no preference": assignment is round-robin over
// the workers. A nonzero key maps stably to key mod workers, so equal
// keys — e.g. the same table key's sketch across epoch rotations —
// always share a home worker.
func (p *PropagatorPool) attach(affinityKey uint64) int {
	p.sketches.Add(1)
	if affinityKey == 0 {
		affinityKey = p.nextID.Add(1)
	}
	return int(affinityKey % uint64(len(p.ws)))
}

// detach unregisters a sketch attached with attach.
func (p *PropagatorPool) detach() { p.sketches.Add(-1) }

// AffinityToken returns a fresh nonzero affinity key from the pool's
// round-robin sequence. Composites that recreate sketches over time
// (e.g. an epoch ring) take one token at construction and attach every
// incarnation with it, inheriting one home worker instead of
// reshuffling on every rotation.
func (p *PropagatorPool) AffinityToken() uint64 {
	for {
		if t := p.nextID.Add(1); t != 0 {
			return t
		}
	}
}

// Close drains every worker's run queue and stops the workers. All
// attached sketches must have stopped handing off (their writers
// quiescent or the sketches closed) before Close is called. Close is
// idempotent.
func (p *PropagatorPool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	p.done.Wait()
}

// submit schedules a sketch for propagation on its home worker. Called
// exactly once per idle-to-scheduled transition, so each sketch
// occupies at most one run-queue slot across the pool.
func (p *PropagatorPool) submit(t propagable, worker int) {
	w := &p.ws[worker]
	w.mu.Lock()
	w.runq = append(w.runq, t)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
		w.wakes.Add(1)
	default:
		// The home worker already holds a wake token and will keep
		// popping until its queue is empty.
	}
	if !w.parked.Load() && p.parked.Load() > 0 {
		// The home worker is busy (mid-propagation, possibly stalled)
		// and some sibling is parked: wake one to steal. Best-effort —
		// if none is found, the home worker's token still guarantees
		// the sketch runs.
		p.wakeSibling(worker)
	}
}

// wakeSibling wakes one parked worker other than home, if any.
func (p *PropagatorPool) wakeSibling(home int) {
	for i := range p.ws {
		if i == home {
			continue
		}
		w := &p.ws[i]
		if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
			p.parked.Add(-1)
			select {
			case w.wake <- struct{}{}:
				w.wakes.Add(1)
			default:
			}
			return
		}
	}
}

// pop removes the head of worker w's run queue, or returns nil when
// empty. An emptied queue resets — and, after a burst, drops — its
// backing array.
func (w *poolWorker) pop() propagable {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head == len(w.runq) {
		if cap(w.runq) > maxIdleCap {
			w.runq = nil
		} else {
			w.runq = w.runq[:0]
		}
		w.head = 0
		return nil
	}
	t := w.runq[w.head]
	w.runq[w.head] = nil // release for GC
	w.head++
	// Compact once the dead prefix dominates: a queue that never goes
	// fully idle would otherwise append past the prefix forever. The
	// shrink-on-empty above handles burst-sized capacity; compaction
	// here only slides the live suffix down.
	if w.head > 64 && w.head*2 >= len(w.runq) {
		n := copy(w.runq, w.runq[w.head:])
		clear(w.runq[n:])
		w.runq = w.runq[:n]
		w.head = 0
	}
	return t
}

// steal takes one sketch from the first non-empty sibling queue,
// scanning victims in ring order from the thief. Bounded: one pass, one
// sketch.
func (p *PropagatorPool) steal(thief int) propagable {
	n := len(p.ws)
	for d := 1; d < n; d++ {
		victim := &p.ws[(thief+d)%n]
		if t := victim.pop(); t != nil {
			p.ws[thief].stolen.Add(1)
			p.steals.Add(1)
			return t
		}
	}
	return nil
}

// worker is propagator goroutine i: it runs sketches scheduled on its
// own queue, steals from siblings when idle, and parks when the whole
// pool has no work, until the pool is closed — then performs a final
// all-queue drain so no scheduled work is dropped.
func (p *PropagatorPool) worker(i int) {
	defer p.done.Done()
	w := &p.ws[i]
	for {
		t := w.pop()
		if t == nil {
			t = p.steal(i)
		}
		if t != nil {
			t.runPropagation()
			w.runs.Add(1)
			continue
		}
		w.parked.Store(true)
		p.parked.Add(1)
		select {
		case <-w.wake:
			if w.parked.CompareAndSwap(true, false) {
				p.parked.Add(-1)
			}
		case <-p.stop:
			if w.parked.CompareAndSwap(true, false) {
				p.parked.Add(-1)
			}
			p.drainAll(i)
			return
		}
	}
}

// drainAll runs every remaining scheduled sketch reachable from worker
// i (its own queue, then steals) — the Close drain. All closing workers
// race over the queues; the per-sketch scheduled flag keeps any single
// sketch on one worker at a time.
func (p *PropagatorPool) drainAll(i int) {
	w := &p.ws[i]
	for {
		t := w.pop()
		if t == nil {
			t = p.steal(i)
		}
		if t == nil {
			return
		}
		t.runPropagation()
		w.runs.Add(1)
	}
}
