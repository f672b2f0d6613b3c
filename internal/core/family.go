package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the lifecycle of one live sketch — what a keyed table
// holds per key and a window per epoch — written once for every family:
// FamilySketch. A family supplies its sequential half (Family and
// FamilyGlobal: update by hash, merge a local, compact, hint, floor and
// estimate) and its batch pre-filter. Every value a FamilySketch takes
// is already hashed (Engine.HashValue): the composite's writer hashes,
// the sketch never does. §5.3's flat phase
// (FlatFamily), the floor cell (a global that is a FloorSketch) and an
// in-place read (an InPlaceAggregator) are optional.

// Family is a sketch family's Engine as FamilySketch drives it.
type Family[V, S, C any] interface {
	Engine[V, S, C]
	// Config is the framework configuration of the family's sketches.
	// FamilySketch sets Pool, and turns core's eager phase off in a
	// sketch that had a flat phase.
	Config() Config
	// NewGlobal returns a new sketch's global, preloaded with the values
	// a flat phase collected (nil if none), which it takes over.
	NewGlobal(flat []V) FamilyGlobal[V, S, C]
	// Batch is the family's batch pre-filter: the hashes of hs that g
	// can still take against a writer's hint, collected in *scratch
	// unless they are hs itself.
	Batch(g FamilyGlobal[V, S, C], scratch *[]V, hs []V, hint uint64) []V
	// InPlace returns agg as an InPlaceAggregator when the family reads
	// its sketches into agg in place, nil when agg takes compacts.
	InPlace(agg Aggregator[C]) InPlaceAggregator[V, S, C]
}

// FamilyGlobal is a family's composable global sketch with what the
// lifecycle needs besides Global.
type FamilyGlobal[V, S, C any] interface {
	Global[V, S]
	// NewLocal returns a writer-local buffer sketch Merge accepts.
	NewLocal() Local[V]
	// Compact returns an immutable copy, serialised against Merge.
	Compact() C
	// FilterHint is FilterSketch.CalcHint of a sketch over the global.
	FilterHint() (V, bool)
}

// FlatFamily is an optional Family capability: §5.3's flat phase. A
// short stream is processed sequentially, because r = 2·N·b would
// dominate it: until a sketch has taken Config().EagerLimit updates
// (below 2³¹) its state is a lock and the distinct updates seen (exact
// mode), every update is visible on return (r = 0), and nothing is
// attached to the pool. The run that would reach the limit builds the
// global from those updates and goes through the buffered path, on a
// stream where r/n ≤ e holds by then.
type FlatFamily[V, S, C any] interface {
	// FlatAdd appends the hash h to flat unless flat holds it already,
	// and returns flat with h's floor (see FloorSketch). It takes one
	// value, by value, so that a single-item UpdateHashed hands the
	// family nothing that escapes.
	FlatAdd(flat []V, h V) ([]V, uint64)
	// FlatQuery answers Query for a flat sketch holding n values.
	FlatQuery(n int) S
	// FlatCompact returns the compact of a flat sketch holding vals,
	// which it takes over.
	FlatCompact(vals []V) C
}

// InPlaceAggregator is an aggregator that folds a live sketch in with
// no compact in between (EngineSketch.AddTo, Family.InPlace). Under the
// lock Compact would take, the aggregator collects what it can still
// take into its scratch, and FamilySketch hands that over with Insert
// once the lock is released, so no aggregator work holds up a writer or
// the propagator.
type InPlaceAggregator[V, S, C any] interface {
	// AppendFlat returns what the aggregator can take of a flat sketch
	// of fam whose least floor ever offered is low — nil if nothing,
	// and then no Insert follows — or an error when fam's sketches
	// cannot enter the aggregator (a foreign seed).
	AppendFlat(fam Family[V, S, C], flat []V, low uint64) ([]V, error)
	// AppendGlobal is AppendFlat for a concurrent sketch's global,
	// under g's own lock.
	AppendGlobal(fam Family[V, S, C], g FamilyGlobal[V, S, C]) ([]V, error)
	// Insert folds in what an Append returned; it may keep it as its
	// scratch.
	Insert(vals []V)
}

// FamilySketch is one live sketch of a family, and an EngineSketch,
// FilterSketch and FloorSketch: flat while the family's flat phase
// lasts, then concurrent — a framework Sketch over the family's global,
// whose writer slot i is created on first use and driven only by the
// composite's writer i or an owner holding exclusive access.
type FamilySketch[V, S, C any] struct {
	// fam, live, mu, low and flat, what a rollup reads, come first.
	fam  Family[V, S, C]
	live atomic.Pointer[live[V, S, C]] // nil while flat or closed
	// mu guards flat, low, applied and floor, and serialises
	// materialization, Reset and Close.
	mu sync.Mutex
	// low is the least floor offered to the flat phase since start; it
	// only falls. (A concurrent global with a floor keeps its own.)
	low  uint64
	flat []V

	pool *PropagatorPool
	// floor is the cell of the table shard that holds the sketch, nil
	// outside a table (see SetFloor).
	floor *atomic.Uint64
	// limit ends the flat phase (0: none). applied counts the updates
	// the phase took, and n = len(flat) is what Query reads, or closed.
	// 32 bits each keep a flat Θ key in one size class
	// (TestSketchSizeClasses).
	limit, applied int32
	n              atomic.Int32
}

// closed is FamilySketch.n of a closed sketch (see open).
const closed = -1

// live is the concurrent state of a FamilySketch.
type live[V, S, C any] struct {
	Sketch[V, S]
	g FamilyGlobal[V, S, C]
}

// NewFamilySketch returns a sketch of fam propagated on pool.
func NewFamilySketch[V, S, C any](fam Family[V, S, C], pool *PropagatorPool) *FamilySketch[V, S, C] {
	s := &FamilySketch[V, S, C]{fam: fam, pool: pool}
	if _, ok := fam.(FlatFamily[V, S, C]); ok {
		s.limit = int32(max(fam.Config().EagerLimit, 0))
	}
	s.start()
	return s
}

// start puts a new or reset sketch into its initial state. Callers hold
// mu or own the sketch exclusively.
func (s *FamilySketch[V, S, C]) start() {
	s.applied, s.low, s.flat = 0, math.MaxUint64, s.flat[:0]
	s.n.Store(0)
	s.live.Store(nil)
	if s.limit == 0 {
		s.materialize()
	}
}

// materialize builds the concurrent state — its global takes over the
// flat values — and publishes it. Callers hold mu or own the sketch
// exclusively.
func (s *FamilySketch[V, S, C]) materialize() {
	g := s.fam.NewGlobal(s.flat)
	s.flat = nil
	if s.floor != nil {
		handFloor(g, s.floor)
	}
	cfg := s.fam.Config()
	cfg.Pool = s.pool
	if s.limit > 0 {
		cfg.EagerLimit = 0 // the flat phase was this sketch's eager phase
	}
	l := &live[V, S, C]{g: g}
	l.init(g, g.NewLocal, cfg)
	s.live.Store(l)
}

// handFloor hands g the floor cell, or sets the cell to 0 (always read)
// for a global that keeps no floor.
func handFloor(g any, cell *atomic.Uint64) {
	if f, ok := g.(FloorSketch); ok {
		f.SetFloor(cell)
	} else {
		cell.Store(0)
	}
}

// LowerCell lowers a floor cell to v unless it is already at or below.
// Floors settle after a sketch's first few runs, so the load almost
// always ends it without a write.
func LowerCell(cell *atomic.Uint64, v uint64) {
	for {
		cur := cell.Load()
		if v >= cur || cell.CompareAndSwap(cur, v) {
			return
		}
	}
}

// open panics on a closed sketch: any use after Close is a contract
// violation and fails loudly. Only paths that find no live state ask.
func (s *FamilySketch[V, S, C]) open() {
	if s.n.Load() == closed {
		panic("core: use of a closed sketch")
	}
}

// flatAdd applies a run to a flat sketch and reports whether it did.
// false means the sketch is concurrent — it was, or this run would
// reach the limit and materialized it — and the caller takes the
// writer path.
func (s *FamilySketch[V, S, C]) flatAdd(hs []V) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live.Load() != nil {
		return false
	}
	s.open()
	if int(s.applied)+len(hs) >= int(s.limit) {
		s.materialize()
		return false
	}
	ff := s.fam.(FlatFamily[V, S, C])
	flat, low := s.flat, uint64(math.MaxUint64)
	for _, h := range hs {
		var l uint64
		flat, l = ff.FlatAdd(flat, h)
		low = min(low, l)
	}
	if low < s.low {
		if s.floor != nil {
			// Before n.Store and the unlock: a rollup that skipped the
			// shard read its cell before these values existed.
			LowerCell(s.floor, low)
		}
		s.low = low
	}
	s.flat = flat
	s.applied += int32(len(hs))
	s.n.Store(int32(len(flat)))
	return true
}

// UpdateHashed implements EngineSketch.
func (s *FamilySketch[V, S, C]) UpdateHashed(i int, h V) {
	l := s.live.Load()
	if l == nil {
		if s.flatAdd([]V{h}) {
			return
		}
		l = s.live.Load()
	}
	l.Writer(i).Update(h)
}

// UpdateHashedBatch implements EngineSketch.
func (s *FamilySketch[V, S, C]) UpdateHashedBatch(i int, hs []V) {
	l := s.live.Load()
	if l == nil {
		if s.flatAdd(hs) {
			return
		}
		l = s.live.Load()
	}
	w := l.Writer(i)
	w.UpdateBatchPrefiltered(s.fam.Batch(l.g, &w.scratch, hs, w.hint))
}

// Flush implements EngineSketch; a flat sketch buffers nothing.
func (s *FamilySketch[V, S, C]) Flush(i int) {
	if l := s.live.Load(); l == nil {
		s.open()
	} else if w := l.writers[i]; w != nil {
		w.Flush()
	}
}

// Query implements EngineSketch.
func (s *FamilySketch[V, S, C]) Query() S {
	if l := s.live.Load(); l != nil {
		return l.Query()
	}
	s.open()
	return s.fam.(FlatFamily[V, S, C]).FlatQuery(int(s.n.Load()))
}

// CalcHint implements FilterSketch: none while flat.
func (s *FamilySketch[V, S, C]) CalcHint() (hint V, ok bool) {
	if l := s.live.Load(); l != nil {
		return l.g.FilterHint()
	}
	return hint, false
}

// Compact implements EngineSketch. A flat sketch is copied under mu,
// the only point where a compact waits for a writer.
func (s *FamilySketch[V, S, C]) Compact() C {
	var vals []V
	l := s.live.Load()
	if l == nil {
		s.mu.Lock()
		if l = s.live.Load(); l == nil {
			vals = slices.Clone(s.flat)
		}
		s.mu.Unlock()
	}
	if l != nil {
		return l.g.Compact()
	}
	s.open()
	return s.fam.(FlatFamily[V, S, C]).FlatCompact(vals)
}

// AddTo implements EngineSketch: in place when the family reads into
// agg in place (Family.InPlace), otherwise as agg.Add(Compact()).
func (s *FamilySketch[V, S, C]) AddTo(agg Aggregator[C]) error {
	a := s.fam.InPlace(agg)
	if a == nil {
		return agg.Add(s.Compact())
	}
	var vals []V
	var err error
	l := s.live.Load()
	if l == nil {
		s.mu.Lock()
		if l = s.live.Load(); l == nil {
			vals, err = a.AppendFlat(s.fam, s.flat, s.low)
		}
		s.mu.Unlock()
	}
	if l != nil {
		vals, err = a.AppendGlobal(s.fam, l.g)
	} else {
		s.open()
	}
	if vals != nil {
		a.Insert(vals)
	}
	return err
}

// SetFloor implements FloorSketch: the sketch keeps cell at or below
// its floor — low while flat, its global's once concurrent, 0 if that
// global keeps none. A table calls it once, when it creates the key.
func (s *FamilySketch[V, S, C]) SetFloor(cell *atomic.Uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.floor = cell
	if l := s.live.Load(); l != nil {
		handFloor(l.g, cell)
	} else {
		LowerCell(cell, s.low)
	}
}

// Live returns the framework sketch once s is concurrent, nil while it
// is flat or closed.
func (s *FamilySketch[V, S, C]) Live() *Sketch[V, S] {
	if l := s.live.Load(); l != nil {
		return &l.Sketch
	}
	return nil
}

// Reset implements EngineSketch: flat again in a family with a flat
// phase.
func (s *FamilySketch[V, S, C]) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.live.Load(); l != nil {
		l.Close()
	}
	s.open()
	s.start()
}

// Close implements EngineSketch. It drops the state: writer entry
// caches may keep a reference to an evicted table entry until the slot
// is overwritten, and releasing the graph here bounds that retention to
// this struct.
func (s *FamilySketch[V, S, C]) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.live.Load(); l != nil {
		l.Close()
	}
	s.live.Store(nil)
	s.flat = nil
	s.n.Store(closed)
}
