// Package window implements sliding-window sketches over the generic
// engine (core.Engine): "uniques/quantiles over the last R·W of
// stream" rather than the point-in-time "ever" of the base framework.
//
// Time is cut into epochs of width W; the window is the union of the
// last R. Each windowed sketch is one epoch ring, a core.EngineSketch
// itself: a live sketch for the active epoch, the compacts of the R−1
// sealed epochs, and their union, built lazily by the first read after
// a seal. A rotation (a tick, or an explicit Rotate) bumps the epoch
// and seals every ring: it flushes the writer slots, compacts the live
// sketch, Resets it in place and drops the compact that left the
// window — expired data leaves wholesale, which is how a window works
// over merge-only sketches. Windowed is one ring behind an RW lock;
// Table is one table.Table whose per-key sketch is a ring.
//
// Bound: each epoch's sketch is r-relaxed (Theorem 1, r = 2·N·b), and
// an epoch seals only after every writer slot is flushed, so sealed
// epochs are complete: a window query misses at most r updates in all,
// all in the active epoch, besides the epoch-width quantisation of
// expiry. Rotate may run at any time, as often as wanted, beside
// ingestion and reads.
package window

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/metrics"
)

// Config configures an epoch ring. The zero value gives 8 slots of one
// minute each (a ~8-minute sliding window) on an owned pool.
type Config struct {
	// Slots is R, the number of ring epochs (>= 2; default 8). The
	// window covers the R most recent epochs, active one included.
	Slots int
	// Width is W, one epoch's duration (default one minute). Rotation
	// is driven by AutoRotate (a W-ticker) or explicit Rotate calls;
	// Width also documents the window span Slots·Width.
	Width time.Duration
	// Pool, when non-nil, is an external propagation executor shared
	// with other sketches, tables or windows; the caller closes it
	// after the window. Nil gives the window its own pool of GOMAXPROCS
	// workers (a keyed window first takes its table config's Pool).
	Pool *core.PropagatorPool
}

func (c Config) withDefaults() Config {
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.Slots < 2 {
		panic(fmt.Sprintf("window: Config.Slots must be >= 2, got %d", c.Slots))
	}
	if c.Width == 0 {
		c.Width = time.Minute
	}
	if c.Width < 0 {
		panic("window: Config.Width must be positive")
	}
	return c
}

// clock is the window state Windowed and Table share: configuration,
// executor ownership, the epoch counter, rotation serialisation, the
// AutoRotate ticker and the counters.
type clock struct {
	cfg     Config
	pool    *core.PropagatorPool
	ownPool bool

	// mu serialises Rotate/AutoRotate/Close, off the ingest and read paths.
	mu     sync.Mutex
	closed bool
	epoch  atomic.Int64
	// rotate is the owner's Rotate method, driven by AutoRotate's
	// ticker goroutine until stop closes; done closes when it has left.
	rotate     func()
	stop, done chan struct{}

	// rotations counts Rotate calls, expired the epochs that left the
	// window, recycles the live sketches a seal Reset in place, and
	// sealedRebuilds the unions of sealed epochs built by merging.
	rotations      atomic.Int64
	expired        atomic.Int64
	recycles       atomic.Int64
	sealedRebuilds atomic.Int64
}

// init wires the clock: cfg must already carry defaults. fallback, when
// non-nil and cfg.Pool is nil, is used as a shared (non-owned)
// executor; otherwise a nil pool means the window owns a fresh one.
func (c *clock) init(cfg Config, fallback *core.PropagatorPool, rotate func()) {
	c.cfg, c.rotate, c.pool = cfg, rotate, cmp.Or(cfg.Pool, fallback)
	if c.pool == nil {
		c.pool, c.ownPool = core.NewPropagatorPool(0), true
	}
}

// advance starts the next epoch under c.mu and returns its number.
func (c *clock) advance() int64 {
	e := c.epoch.Add(1)
	c.rotations.Add(1)
	if e >= int64(c.cfg.Slots) {
		c.expired.Add(1)
	}
	return e
}

// shut marks the window closed and stops its ticker; false if it
// already was.
func (c *clock) shut() bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	stop, done := c.stop, c.done
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return true
}

// Epoch returns the current epoch number (0-based, one per rotation).
func (c *clock) Epoch() int64 { return c.epoch.Load() }

// Rotations returns the number of epoch rotations performed.
func (c *clock) Rotations() int64 { return c.rotations.Load() }

// SealedRebuilds returns the number of sealed-epoch unions built.
func (c *clock) SealedRebuilds() int64 { return c.sealedRebuilds.Load() }

// ExpiredEpochs returns the number of epochs dropped off the ring.
func (c *clock) ExpiredEpochs() int64 { return c.expired.Load() }

// Recycles returns the number of live sketches a seal Reset in place
// for the next epoch (one per ring that took updates, per rotation).
func (c *clock) Recycles() int64 { return c.recycles.Load() }

// HintCarries returns 0: a new epoch starts empty, never seeded with
// the filter of the epoch before. It stays for the counter's readers.
func (c *clock) HintCarries() int64 { return 0 }

// Slots returns R, the ring size.
func (c *clock) Slots() int { return c.cfg.Slots }

// Width returns W, one epoch's duration.
func (c *clock) Width() time.Duration { return c.cfg.Width }

// Window returns the window span Slots·Width.
func (c *clock) Window() time.Duration { return time.Duration(c.cfg.Slots) * c.cfg.Width }

// Pool returns the window's propagation executor.
func (c *clock) Pool() *core.PropagatorPool { return c.pool }

// AutoRotate starts a background rotator ticking every Width; it stops
// when the window is closed. Call at most once.
func (c *clock) AutoRotate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		panic("window: AutoRotate called twice")
	}
	if c.closed {
		return
	}
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Width)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.rotate()
			case <-c.stop:
				return
			}
		}
	}()
}

// RegisterMetrics exports the window's counters into reg, labeled with
// the given window name; every series is func-backed, read at scrape
// time.
//
// Families: fcds_window_epoch, fcds_window_rotations_total,
// fcds_window_sealed_rebuilds_total, fcds_window_expired_epochs_total,
// fcds_window_recycles_total.
func (c *clock) RegisterMetrics(reg *metrics.Registry, name string) {
	reg.GaugeFunc("fcds_window_epoch",
		"Current epoch number of the ring (incremented per rotation).",
		func() float64 { return float64(c.Epoch()) }, "window", name)
	reg.CounterFunc("fcds_window_rotations_total",
		"Epoch rotations performed.",
		func() float64 { return float64(c.Rotations()) }, "window", name)
	reg.CounterFunc("fcds_window_sealed_rebuilds_total",
		"Unions of sealed epochs built by merging, lazily by the first read after a seal.",
		func() float64 { return float64(c.SealedRebuilds()) }, "window", name)
	reg.CounterFunc("fcds_window_expired_epochs_total",
		"Epochs dropped off the ring, their data leaving the window.",
		func() float64 { return float64(c.ExpiredEpochs()) }, "window", name)
	reg.CounterFunc("fcds_window_recycles_total",
		"Live epoch sketches Reset in place when their epoch sealed.",
		func() float64 { return float64(c.Recycles()) }, "window", name)
}

// Windowed is a sliding-window sketch over one engine: one epoch ring
// behind an RW lock. Writers and readers hold the lock shared; a
// rotation holds it exclusive while it seals the ring, so no reader
// sees a half-sealed ring and the seal owns every writer slot.
type Windowed[V, S, C any] struct {
	clock
	eng core.Engine[V, S, C]
	rw  sync.RWMutex
	r   *ring[V, S, C] // nil once closed; under rw
	// published is the sealed epochs' answer, refreshed by Rotate, for
	// the strictly wait-free QueryWindowCached.
	published atomic.Pointer[S]
}

// New builds an epoch-ring windowed sketch whose per-epoch sketches
// come from the engine; Close it when done.
func New[V, S, C any](eng core.Engine[V, S, C], cfg Config) *Windowed[V, S, C] {
	w := &Windowed[V, S, C]{eng: eng}
	w.clock.init(cfg.withDefaults(), nil, w.Rotate)
	w.r = newRing(eng, eng.NewSketch(w.pool), &w.clock)
	w.publish()
	return w
}

// Writer returns the i-th ingestion handle (0 <= i < the engine's
// writer count). Each handle must be used by at most one goroutine at
// a time.
func (w *Windowed[V, S, C]) Writer(i int) *Writer[V, S, C] {
	if i < 0 || i >= w.eng.NumWriters() {
		panic(fmt.Sprintf("window: writer index %d out of range [0,%d)", i, w.eng.NumWriters()))
	}
	return &Writer[V, S, C]{w: w, id: i}
}

// RelaxationPerEpoch returns r = 2·N·b. Rotation seals an epoch only
// after flushing every writer slot, so only the active epoch can hold
// updates a query misses: r bounds the whole window, not each epoch.
func (w *Windowed[V, S, C]) RelaxationPerEpoch() int { return w.eng.Relaxation() }

// QueryWindow returns the query answer over the last Slots epochs
// (active epoch included, expired epochs excluded). It may miss up to
// RelaxationPerEpoch() of the active epoch's latest updates.
func (w *Windowed[V, S, C]) QueryWindow() S {
	return w.eng.QueryCompact(w.WindowCompact())
}

// QueryWindowCached returns the answer over the sealed epochs
// published by the last Rotate: a single atomic read — strictly
// wait-free — at the price of staleness up to one epoch (the active
// epoch's updates appear only after it seals).
func (w *Windowed[V, S, C]) QueryWindowCached() S { return *w.published.Load() }

// WindowCompact returns a mergeable, serializable compact of the whole
// window — the window counterpart of a sketch's Compact.
func (w *Windowed[V, S, C]) WindowCompact() C {
	agg := w.eng.NewAggregator()
	w.rw.RLock()
	if w.r != nil {
		_ = w.r.AddTo(agg) // same engine: compatible by construction
	}
	w.rw.RUnlock()
	return agg.Result()
}

// publish refreshes the cached answer from the sealed epochs. Caller
// holds mu (or is New), which excludes the only writer of sealed.
func (w *Windowed[V, S, C]) publish() {
	agg := w.eng.NewAggregator()
	if u, ok := w.r.sealedUnion(); ok {
		_ = agg.Add(u)
	}
	s := w.eng.QueryCompact(agg.Result())
	w.published.Store(&s)
}

// Rotate advances the window by one epoch: the active epoch seals —
// every writer slot flushed, its compact kept, its sketch Reset in
// place for the new epoch — the epoch that fell off the ring leaves,
// and the cached answer is republished. Safe to call at any time,
// beside ingestion and queries.
func (w *Windowed[V, S, C]) Rotate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	e := w.advance()
	w.rw.Lock()
	w.r.flushAll()
	w.r.seal(e, w.cfg.Slots)
	w.rw.Unlock()
	w.publish()
}

// Drain flushes every writer slot, so queries reflect all prior
// updates. All writer handles must be quiescent, exactly as for Close.
func (w *Windowed[V, S, C]) Drain() {
	w.rw.RLock()
	if w.r != nil {
		w.r.flushAll()
	}
	w.rw.RUnlock()
}

// Close stops rotation, closes the ring's sketch and, when owned, the
// propagator pool. All writer handles must be quiescent. Idempotent.
func (w *Windowed[V, S, C]) Close() {
	if !w.shut() {
		return
	}
	w.rw.Lock()
	w.r.Close()
	w.r = nil
	w.rw.Unlock()
	if w.ownPool {
		w.pool.Close()
	}
}

// Writer is a single-goroutine window ingestion handle driving writer
// slot i of the ring's live sketch. A rotation flushes the slot as it
// seals the epoch, so a handle never migrates anything.
type Writer[V, S, C any] struct {
	w  *Windowed[V, S, C]
	id int
}

// Update ingests one value into the active epoch.
func (w *Writer[V, S, C]) Update(v V) {
	w.w.rw.RLock()
	if r := w.w.r; r != nil {
		r.Update(w.id, v)
	}
	w.w.rw.RUnlock()
}

// UpdateBatch ingests a slice of values into the active epoch through
// the engine's fused batch pipeline.
func (w *Writer[V, S, C]) UpdateBatch(vs []V) {
	w.w.rw.RLock()
	if r := w.w.r; r != nil {
		r.UpdateBatch(w.id, vs)
	}
	w.w.rw.RUnlock()
}

// Flush hands off this handle's buffered updates and waits until they
// are queryable.
func (w *Writer[V, S, C]) Flush() {
	w.w.rw.RLock()
	if r := w.w.r; r != nil {
		r.Flush(w.id)
	}
	w.w.rw.RUnlock()
}
