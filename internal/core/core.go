// Package core implements the paper's generic concurrent sketch
// framework (Section 5): OptParSketch, the double-buffered algorithm of
// Algorithm 2, plus the non-optimised ParSketch variant and the eager
// propagation adaptation for small streams (§5.3).
//
// The framework is instantiated with a composable sketch (the Global
// interface: merge/snapshot/calcHint/shouldAdd of §5.1) and a factory
// of writer-local buffer sketches (the Local interface). N writer
// goroutines each own a Writer handle with two local sketches; a
// propagator continuously folds filled local sketches into the shared
// global sketch. By default each sketch owns a dedicated propagator
// goroutine (the paper's thread t_0); sketches can instead share a
// fixed PropagatorPool, which keyed workloads with millions of
// per-key sketches require. Writers synchronise with the propagator
// through one atomic word each (prop_i), exactly as in the paper:
// prop_i = 0 hands the filled buffer to the propagator, and the
// propagator writes back the global sketch's hint (always nonzero) to
// signal completion, piggybacking the pre-filtering information.
//
// Queries read a snapshot published through a single atomic load and
// never synchronise with writers, so they are wait-free and strongly
// linearisable with respect to the r-relaxed sequential specification,
// with r = 2·N·b (Theorem 1).
//
// Above the framework, the lifecycle of one live sketch — what a keyed
// table holds per key and a window per epoch — is also written once:
// FamilySketch drives any family through Sketch and Writer (lazy
// writer slots, flush, query, compact, in-place reads, reset, close,
// §5.3's flat phase and the floor cell). Each family (Θ, quantiles,
// HLL) implements only the Family interface: its sequential global
// sketch (update by hash, merge a local, compact, hint, floor,
// estimate) and its batch pre-filter, plus the codec and aggregator of
// Engine.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Local is a writer-local sketch: it buffers up to b updates between
// propagations. It is accessed by exactly one goroutine at a time (its
// writer, or the propagator after handoff), so implementations need no
// synchronisation.
type Local[U any] interface {
	// Update folds one (pre-filtered) update into the local state.
	Update(u U)
	// Reset restores the empty state, retaining buffers.
	Reset()
}

// BatchLocal is an optional extension of Local: locals that can absorb
// a contiguous run of updates in one call (e.g. with a single bulk
// copy) implement it, and the framework's batch ingestion path uses it
// instead of per-item Update interface dispatch.
type BatchLocal[U any] interface {
	Local[U]
	// UpdateSlice folds a run of pre-filtered updates into the local
	// state, equivalent to calling Update on each element in order.
	UpdateSlice(us []U)
}

// Global is the composable sketch of §5.1. Merge and UpdateDirect are
// invoked by one goroutine at a time (the propagator, or an eager
// writer holding the framework's lock); Snapshot may be invoked
// concurrently with them and must be strongly linearisable — in
// practice, a single atomic read of state published at the end of every
// Merge/UpdateDirect.
type Global[U any, S any] interface {
	// Merge folds a handed-off local sketch into the global state and
	// republishes the snapshot.
	Merge(l Local[U])
	// UpdateDirect applies a single update (eager phase, §5.3).
	UpdateDirect(u U)
	// Snapshot returns the queryable state (S.snapshot() of §5.1).
	Snapshot() S
	// CalcHint returns the current pre-filtering hint; the framework
	// maps 0 to 1, as the paper reserves 0 for the handoff signal.
	CalcHint() uint64
	// ShouldAdd reports whether an update can affect the sketch given
	// a (possibly stale) hint. It must be a static predicate: given
	// hint h, a false answer must remain valid forever (§5.1 requires
	// "S.shouldAdd is a static function").
	ShouldAdd(hint uint64, u U) bool
}

// Config tunes the framework. The zero value is not valid; use
// DefaultConfig or fill all fields.
type Config struct {
	// Writers is N, the number of update-writer handles.
	Writers int
	// BufferSize is b, the per-writer local buffer size. The
	// relaxation — how many updates a query may miss — is 2·N·b
	// (Theorem 1; N·b for ParSketch).
	BufferSize int
	// EagerLimit is the stream length (in updates applied to the
	// global sketch) below which writers propagate eagerly —
	// sequentially, under a lock — instead of buffering (§5.3). Zero or
	// less disables the eager phase.
	EagerLimit int
	// DoubleBuffering selects OptParSketch (true, Algorithm 2 with the
	// gray lines) or the non-optimised ParSketch (false), in which a
	// writer blocks while its single buffer is propagated. ParSketch
	// exists for the ablation benchmarks; production use should keep
	// this true.
	DoubleBuffering bool
	// BufferAdaptor, when non-nil, is consulted after every handoff to
	// resize the writer's buffer based on the freshly piggybacked hint
	// — the paper's §8 future-work direction ("dynamically adapt the
	// size of the local buffers and respective relaxation error").
	// The returned size is clamped to [1, MaxAdaptiveBuffer].
	// Relaxation() reports the worst case 2·N·MaxAdaptiveBuffer when
	// an adaptor is set.
	BufferAdaptor func(hint uint64, current int) int
	// Pool, when non-nil, is the shared propagation executor this
	// sketch attaches to; the sketch then spawns no goroutine of its
	// own and must be closed before the pool. Nil gives the sketch a
	// dedicated single-worker pool — the paper's per-sketch propagator
	// thread.
	Pool *PropagatorPool
}

// MaxAdaptiveBuffer caps BufferAdaptor results so the relaxation bound
// stays finite and reportable.
const MaxAdaptiveBuffer = 1 << 14

// DefaultConfig returns the configuration used throughout the paper's
// evaluation for a given writer count: double buffering on, eager phase
// sized for error bound e = 0.04.
func DefaultConfig(writers int) Config {
	return Config{
		Writers:         writers,
		BufferSize:      5,
		EagerLimit:      EagerLimitFor(0.04),
		DoubleBuffering: true,
	}
}

// BufferSizeFor derives the local buffer size b from the sketch
// accuracy parameter k, the maximum tolerated relaxation error e and
// the writer count N. Two regimes constrain b (r = 2·N·b):
//
//   - estimation mode (n > k): RSE ≤ 1/sqrt(k-2) + r/(k-2) (§6.1), so
//     r/(k-2) ≤ e requires b ≤ e·(k-2)/(2N);
//   - exact mode (n ≤ k): a query may miss r of n updates, a relative
//     error of r/n; the worst case is at the eager cutoff n = 2/e²
//     (§5.3), so r·e²/2 ≤ e requires b ≤ 1/(e·N).
//
// The result is the tighter of the two, clamped to [1, 256]. For the
// paper's configuration (k=4096, e=0.04, N=12) this yields b = 2,
// consistent with the implementation's reported "value between 1 and
// 5" (§7.1). e >= 1 means "no error target": only the estimation-mode
// bound applies.
func BufferSizeFor(k int, e float64, writers int) int {
	if writers <= 0 {
		panic("core: writers must be positive")
	}
	if e <= 0 || k <= 2 {
		return 1
	}
	n := float64(writers)
	b := e * float64(k-2) / (2 * n)
	if e < 1 {
		if exact := 1 / (e * n); exact < b {
			b = exact
		}
	}
	bi := int(b)
	if bi < 1 {
		bi = 1
	}
	if bi > 256 {
		bi = 256
	}
	return bi
}

// EagerLimitFor returns the eager-propagation cutoff 2/e² used by the
// implementation (§7.1). Error bounds e >= 1 disable the eager phase
// (the paper's e = 1.0 "no eager" configuration).
func EagerLimitFor(e float64) int {
	if e >= 1 || e <= 0 {
		return 0
	}
	return int(2/(e*e) + 0.5)
}

// Sketch is a concurrent sketch built from a composable global sketch
// and per-writer locals. Create with New, obtain writer handles with
// Writer, query with Query, and Close when done.
type Sketch[U any, S any] struct {
	global Global[U, S]
	cfg    Config
	// writers[i] is slot i's handle, created lazily on first Writer(i)
	// call — keyed tables instantiate one sketch per key with N slots,
	// and a key touched by only a few of the N table writers must not
	// pay for the others' local buffers. Slot creation is safe under
	// the handle contract (slot i is driven by one goroutine), and the
	// propagator only ever dereferences slots whose ids were enqueued
	// after creation; the Close drain skips nil slots.
	writers []*Writer[U, S]
	// mkMu serialises lazy slot creation: newLocal factories may share
	// mutable state (e.g. a forked RNG oracle), so concurrent first
	// calls for distinct slots must not run the factory in parallel.
	mkMu sync.Mutex
	// newLocal allocates a writer-local buffer sketch (retained for
	// lazy slot creation).
	newLocal func() Local[U]
	// initialHint is the pre-filtering hint captured at New, used for
	// every lazily created writer: reading a fresh hint at creation
	// time would race the propagator's merges, and a stale hint is
	// always safe (it only admits more).
	initialHint uint64

	// eager is true while the stream is short enough that updates go
	// directly to the global sketch (§5.3). eagerMu serialises the
	// global sketch between eager writers; eagerCount counts applied
	// eager updates and is guarded by eagerMu.
	eager      atomic.Bool
	eagerMu    sync.Mutex
	eagerCount int

	// pending is the sketch's private MPSC handoff queue: writers
	// enqueue their index after storing prop = 0, and a pool worker
	// merges exactly those slots, so wakeup cost is O(outstanding
	// handoffs) instead of a full O(N) slot scan. The prop protocol
	// guarantees at most one outstanding handoff per writer, so
	// capacity N means enqueues never block.
	pending chan int
	// scheduled is true while the sketch sits in the pool's run queue
	// or a worker is draining pending; it serialises propagation so at
	// most one goroutine merges into the global sketch at a time.
	scheduled atomic.Bool
	// inflight counts handoffs enqueued but not yet merged; Close on a
	// shared pool waits for it to reach zero.
	inflight atomic.Int64

	pool *PropagatorPool
	// ownPool is true when the sketch created its pool (the dedicated
	// single-propagator default) and is responsible for closing it.
	ownPool bool

	closed atomic.Bool

	// propagations counts completed merges (observability + tests).
	propagations atomic.Int64
	// fullScans counts full slot scans; after the queue refactor only
	// the Close drain scans, which the handoff-path tests pin down.
	fullScans atomic.Int64
}

// New creates a concurrent sketch. newLocal is called 2·N times to
// allocate the writer-local sketches (N times for ParSketch). Unless
// cfg.Pool is set, the returned sketch owns a background propagator
// goroutine until Close.
func New[U any, S any](global Global[U, S], newLocal func() Local[U], cfg Config) *Sketch[U, S] {
	s := new(Sketch[U, S])
	s.init(global, newLocal, cfg)
	return s
}

// init is New for a sketch embedded in a larger struct (see
// FamilySketch).
func (s *Sketch[U, S]) init(global Global[U, S], newLocal func() Local[U], cfg Config) {
	if cfg.Writers <= 0 {
		panic("core: Config.Writers must be positive")
	}
	if cfg.BufferSize <= 0 {
		panic("core: Config.BufferSize must be positive")
	}
	s.global, s.cfg, s.pool = global, cfg, cfg.Pool
	s.pending = make(chan int, cfg.Writers)
	if s.pool == nil {
		s.pool = NewPropagatorPool(1)
		s.ownPool = true
	}
	s.pool.attach()
	s.eager.Store(cfg.EagerLimit > 0)
	s.newLocal = newLocal
	s.initialHint = nonzero(global.CalcHint())
	s.writers = make([]*Writer[U, S], cfg.Writers)
}

// Writer returns the i-th writer handle (0 <= i < Config.Writers),
// creating it (and its local buffers) on first use. Each handle must
// be used by at most one goroutine at a time; concurrent first calls
// for distinct slots are safe (distinct slice elements).
func (s *Sketch[U, S]) Writer(i int) *Writer[U, S] {
	if i < 0 || i >= len(s.writers) {
		panic(fmt.Sprintf("core: writer index %d out of range [0,%d)", i, len(s.writers)))
	}
	if w := s.writers[i]; w != nil {
		return w
	}
	s.mkMu.Lock()
	defer s.mkMu.Unlock()
	if w := s.writers[i]; w != nil {
		return w
	}
	w := &Writer[U, S]{parent: s, id: i, b: s.cfg.BufferSize, hint: s.initialHint}
	w.prop.Store(s.initialHint)
	s.writers[i] = w
	return w
}

// initLocals allocates the writer's first local buffer sketch on first
// buffered use. Handles that never leave the eager phase — the long
// tail of a keyed table's key population — never allocate locals at
// all; the check is one nil test on the buffered paths. The standby
// buffer (double buffering) is deferred further, to the first handoff:
// a slot that buffers a few updates but never fills b pays for one
// local, not two.
func (w *Writer[U, S]) initLocals() {
	p := w.parent
	p.mkMu.Lock()
	w.local[0] = p.newLocal()
	p.mkMu.Unlock()
}

// ensureStandby allocates the double-buffering standby local on the
// first handoff.
func (w *Writer[U, S]) ensureStandby() {
	if w.local[1] != nil {
		return
	}
	p := w.parent
	p.mkMu.Lock()
	w.local[1] = p.newLocal()
	p.mkMu.Unlock()
}

// NumWriters returns the configured writer count N.
func (s *Sketch[U, S]) NumWriters() int { return len(s.writers) }

// Relaxation returns the query relaxation bound r of a sketch built
// with c: queries may miss up to r of the updates that precede them
// (Theorem 1). With an adaptive buffer the worst-case cap is reported.
func (c Config) Relaxation() int {
	b := c.BufferSize
	if c.BufferAdaptor != nil {
		b = MaxAdaptiveBuffer
	}
	if c.DoubleBuffering {
		return 2 * c.Writers * b
	}
	return c.Writers * b
}

// Relaxation returns the sketch's bound r (see Config.Relaxation).
func (s *Sketch[U, S]) Relaxation() int { return s.cfg.Relaxation() }

// Query returns the current snapshot. It is wait-free: a single atomic
// read, never blocked by writers or the propagator.
func (s *Sketch[U, S]) Query() S { return s.global.Snapshot() }

// Propagations returns the number of buffer merges completed so far.
func (s *Sketch[U, S]) Propagations() int64 { return s.propagations.Load() }

// Eager reports whether the sketch is still in the eager
// (sequential, small-stream) phase.
func (s *Sketch[U, S]) Eager() bool { return s.eager.Load() }

// Close detaches the sketch from propagation after draining all
// handed-off buffers: an owned pool is shut down, a shared pool keeps
// serving its other sketches. Callers must stop updating and call
// Flush on each writer first if they need every buffered update
// reflected in the final state. Close is idempotent.
func (s *Sketch[U, S]) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.ownPool {
		s.pool.Close()
	} else {
		// Wait until the pool has merged every outstanding handoff of
		// this sketch and no worker is still draining it.
		for i := 0; s.inflight.Load() > 0 || s.scheduled.Load(); i++ {
			if i < 128 {
				runtime.Gosched()
			} else {
				time.Sleep(time.Microsecond)
			}
		}
	}
	s.pool.detach()
	s.scan() // final drain
}

// Pool returns the propagation executor this sketch is attached to.
func (s *Sketch[U, S]) Pool() *PropagatorPool { return s.pool }

// Writer is the per-goroutine update handle (thread t_i of Algorithm
// 2). Not safe for concurrent use by multiple goroutines.
type Writer[U any, S any] struct {
	parent *Sketch[U, S]
	id     int

	// local[cur] is the sketch currently absorbing updates; with
	// double buffering local[1-cur] belongs to the propagator whenever
	// prop == 0. Without double buffering only local[0] exists.
	local   [2]Local[U]
	cur     int
	counter int
	b       int
	hint    uint64
	// scratch holds a batch's surviving updates between a family's
	// batch pre-filter and the buffered path (FamilySketch), reused
	// so steady-state batches do not allocate.
	scratch []U

	// prop is the handoff word: 0 while the propagator owns the
	// standby buffer, otherwise the latest hint. All cross-thread
	// visibility of the local sketch is ordered through it.
	prop atomic.Uint64
}

// Update processes one pre-filtered update (Algorithm 2, update_i).
func (w *Writer[U, S]) Update(u U) {
	p := w.parent
	if p.eager.Load() {
		if p.eagerUpdate(u) {
			return
		}
	}
	if !p.global.ShouldAdd(w.hint, u) {
		return
	}
	if w.local[0] == nil {
		w.initLocals()
	}
	w.local[w.cur].Update(u)
	w.counter++
	if w.counter == w.b {
		w.handoff()
	}
}

// UpdateBatchPrefiltered processes a run of updates its caller has
// already filtered against the writer's hint (the family's batch
// pre-filter, Family.Batch, or the standalone writers' own hash loops),
// as if Update were called on each element in order but without the
// per-item ShouldAdd: the eager prefix is applied under one lock
// acquisition, and the local buffer is filled in contiguous runs (a
// single UpdateSlice call per run when the local implements
// BatchLocal) with a handoff at each buffer boundary. Elements filtered
// against a hint that has since become stale are still safe to admit:
// pre-filtering is an optimisation and the global sketch re-checks
// every update on merge.
func (w *Writer[U, S]) UpdateBatchPrefiltered(us []U) {
	if len(us) == 0 {
		return
	}
	p := w.parent
	if p.eager.Load() {
		us = p.eagerUpdateBatch(us)
	}
	if len(us) == 0 {
		return
	}
	if w.local[0] == nil {
		w.initLocals()
	}
	local := w.local[w.cur]
	bulk, isBulk := local.(BatchLocal[U])
	for len(us) > 0 {
		n := min(len(us), w.b-w.counter)
		run := us[:n]
		us = us[n:]
		if isBulk {
			bulk.UpdateSlice(run)
		} else {
			for _, u := range run {
				local.Update(u)
			}
		}
		w.counter += n
		if w.counter == w.b {
			w.handoff()
			// handoff flipped cur (and may have refreshed hint and b).
			local = w.local[w.cur]
			if isBulk {
				bulk = local.(BatchLocal[U])
			}
		}
	}
}

// Hint returns the writer's current pre-filtering hint (exposed for
// tests and diagnostics).
func (w *Writer[U, S]) Hint() uint64 { return w.hint }

// eagerUpdate applies u directly to the global sketch while in the
// eager phase. It returns false if the phase ended before the update
// was applied; the caller then falls through to the buffered path.
func (s *Sketch[U, S]) eagerUpdate(u U) bool {
	s.eagerMu.Lock()
	if !s.eager.Load() {
		s.eagerMu.Unlock()
		return false
	}
	s.global.UpdateDirect(u)
	s.eagerCount++
	if s.eagerCount >= s.cfg.EagerLimit {
		// Last eager update: subsequent updates buffer lazily. No
		// lazy merge can have raced us — writers only hand off after
		// observing eager == false.
		s.eager.Store(false)
	}
	s.eagerMu.Unlock()
	return true
}

// eagerUpdateBatch applies a prefix of us directly to the global
// sketch under one lock acquisition and returns the remaining suffix.
// If the eager phase ends mid-batch (or ended before the lock was
// acquired) the rest of the batch is left for the lazy path.
func (s *Sketch[U, S]) eagerUpdateBatch(us []U) []U {
	s.eagerMu.Lock()
	defer s.eagerMu.Unlock()
	if !s.eager.Load() {
		return us
	}
	n := len(us)
	if rem := s.cfg.EagerLimit - s.eagerCount; n > rem {
		n = rem
	}
	for _, u := range us[:n] {
		s.global.UpdateDirect(u)
	}
	s.eagerCount += n
	if s.eagerCount >= s.cfg.EagerLimit {
		s.eager.Store(false)
	}
	return us[n:]
}

// handoff passes the filled buffer to the propagator (lines 123-129 of
// Algorithm 2) and, with double buffering, immediately switches to the
// standby buffer.
func (w *Writer[U, S]) handoff() {
	p := w.parent
	if p.cfg.DoubleBuffering {
		w.ensureStandby()
		// Wait until the previous propagation completed (line 125).
		w.waitPropNonzero()
		w.hint = w.prop.Load() // line 127: piggybacked hint
		w.adaptBuffer()
		w.cur = 1 - w.cur // line 126: flip to the fresh buffer
		w.counter = 0
		w.prop.Store(0) // line 129: hand the filled buffer over
		p.signalHandoff(w.id)
		return
	}
	// ParSketch (no gray lines): signal first, then block until the
	// propagator finishes with our only buffer (lines 124-125).
	w.prop.Store(0)
	p.signalHandoff(w.id)
	w.waitPropNonzero()
	w.hint = w.prop.Load()
	w.adaptBuffer()
	w.counter = 0
}

// adaptBuffer resizes the local buffer from the latest hint (§8
// extension). No-op without a configured adaptor.
func (w *Writer[U, S]) adaptBuffer() {
	adapt := w.parent.cfg.BufferAdaptor
	if adapt == nil {
		return
	}
	b := adapt(w.hint, w.b)
	if b < 1 {
		b = 1
	}
	if b > MaxAdaptiveBuffer {
		b = MaxAdaptiveBuffer
	}
	w.b = b
}

// CurrentBufferSize returns the writer's current local buffer size
// (changes over time when a BufferAdaptor is configured).
func (w *Writer[U, S]) CurrentBufferSize() int { return w.b }

// Flush hands off a partially filled buffer and blocks until the
// propagator has folded every previously handed-off buffer of this
// writer into the global sketch. After Flush returns, all of this
// writer's updates are visible to queries.
func (w *Writer[U, S]) Flush() {
	if w.counter > 0 {
		w.handoff()
	}
	w.waitPropNonzero()
}

// waitPropNonzero spins until the propagator finishes with this
// writer's standby buffer (line 125). The paper busy-waits; we yield
// first and fall back to microsecond sleeps so that oversubscribed
// schedulers (more runnable goroutines than cores) still let the
// propagator run promptly.
func (w *Writer[U, S]) waitPropNonzero() {
	p := w.parent
	for i := 0; w.prop.Load() == 0; i++ {
		if p.closed.Load() {
			panic("core: Update/Flush after Close")
		}
		if i < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond)
		}
	}
}

// signalHandoff enqueues the writer's index on the sketch's private
// queue and, on the idle-to-scheduled transition, enters the sketch
// into the pool's run queue. The send never blocks: each writer has at
// most one outstanding handoff (it must observe prop != 0 before
// handing off again), so the queue holds at most N entries.
func (s *Sketch[U, S]) signalHandoff(id int) {
	s.inflight.Add(1)
	s.pending <- id
	if s.scheduled.CompareAndSwap(false, true) {
		s.pool.submit(s)
	}
}

// runPropagation is the body of the merger thread t_0 (Algorithm 2,
// propagator procedure), executed by a pool worker. It merges exactly
// the slots that writers enqueued — O(outstanding handoffs), never a
// full O(N) slot scan — then clears the scheduled flag. A handoff
// that raced the drain re-enters the sketch at the tail of the pool's
// run queue rather than looping here, so one hot sketch cannot starve
// the pool's other sketches.
func (s *Sketch[U, S]) runPropagation() {
	// Merge at most N handoffs per run — the most that can be
	// outstanding at one instant. Without the bound, a sketch whose
	// writers refill the queue as fast as it drains would never hit
	// the empty case and would capture this worker forever, starving
	// the pool's other sketches.
	budget := cap(s.pending)
	for budget > 0 {
		select {
		case id := <-s.pending:
			s.merge(s.writers[id])
			s.inflight.Add(-1)
			budget--
			continue
		default:
		}
		break
	}
	s.scheduled.Store(false)
	// Re-check after clearing the flag: a writer that enqueued between
	// the drain and the Store saw scheduled == true and did not submit.
	if len(s.pending) != 0 && s.scheduled.CompareAndSwap(false, true) {
		s.pool.submit(s)
	}
}

// merge folds one writer's handed-off buffer into the global sketch
// (lines 112-115 of Algorithm 2, for a single slot).
func (s *Sketch[U, S]) merge(w *Writer[U, S]) {
	if w.prop.Load() != 0 {
		// Already merged (a queue entry can go stale only through the
		// Close-drain scan below).
		return
	}
	idx := 0
	if s.cfg.DoubleBuffering {
		// Safe: the writer never touches cur while prop == 0.
		idx = 1 - w.cur
	}
	l := w.local[idx]
	s.global.Merge(l) // line 113
	l.Reset()         // line 114
	s.propagations.Add(1)
	w.prop.Store(nonzero(s.global.CalcHint())) // line 115
}

// scan performs one pass over all writer slots, merging every
// handed-off buffer. Only the Close drain uses it, to catch a writer
// that stored prop = 0 but had not yet enqueued when Close fired.
// Slots never handed out are nil and skipped.
func (s *Sketch[U, S]) scan() {
	s.fullScans.Add(1)
	for _, w := range s.writers {
		if w != nil {
			s.merge(w)
		}
	}
}

func nonzero(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}
