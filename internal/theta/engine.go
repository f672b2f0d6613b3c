package theta

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
)

// Engine binds a concurrent-Θ configuration into the generic
// core.Engine interface: the one description of the Θ lifecycle that
// keyed tables and windowed sketches instantiate per key / per epoch.
// Value type is the raw uint64 item, snapshot type the unique-count
// estimate, compact type the immutable *Compact.
type Engine struct {
	cfg ConcurrentConfig
}

var (
	_ core.Engine[uint64, float64, *Compact] = (*Engine)(nil)
	_ core.FilterEngine[uint64]              = (*Engine)(nil)
	_ core.StringEngine[uint64]              = (*Engine)(nil)
	_ core.FilterSketch[uint64]              = (*engineSketch)(nil)
	_ core.FloorSketch                       = (*engineSketch)(nil)
	_ core.FloorAggregator                   = (*unionAggregator)(nil)
)

// NewEngine returns a Θ engine for the given configuration (zero fields
// take the ConcurrentConfig defaults). The Pool field is ignored: the
// executor is chosen per sketch by NewSketch. It panics on an eager
// limit of 2³¹ or more: a flat sketch counts its updates in 32 bits,
// and that many distinct hashes would need a 16 GiB flat array anyway.
func NewEngine(cfg ConcurrentConfig) *Engine {
	cfg.Pool = nil
	cfg = cfg.withDefaults()
	if cfg.EagerLimit > math.MaxInt32 {
		panic(fmt.Sprintf("theta: eager limit %d is 2^31 or more (MaxError %g); a flat sketch counts below 2^31", cfg.EagerLimit, cfg.MaxError))
	}
	return &Engine{cfg: cfg}
}

// Kind implements core.CompactCodec.
func (e *Engine) Kind() byte { return core.KindTheta }

// Param implements core.CompactCodec: the nominal entry count k.
func (e *Engine) Param() uint32 { return uint32(e.cfg.K) }

// Seed returns the engine's shared hash seed.
func (e *Engine) Seed() uint64 { return e.cfg.Seed }

// HashString maps a string item to its Θ-space hash (zero-alloc); used
// by keyed string-batch ingestion to hash in the grouping pass.
func (e *Engine) HashString(s string) uint64 { return hash.ThetaHashString(s, e.cfg.Seed) }

// HashValue implements core.Engine: the item's Θ-space hash.
func (e *Engine) HashValue(v uint64) uint64 { return hash.ThetaHashUint64(v, e.cfg.Seed) }

// ShouldAdd implements core.FilterEngine (Algorithm 1 line 26): only
// hashes below the hinted Θ can affect the sketch.
func (e *Engine) ShouldAdd(hint, h uint64) bool { return h < hint }

// NumWriters implements core.Engine.
func (e *Engine) NumWriters() int { return e.cfg.Writers }

// Relaxation implements core.Engine: r = 2·N·b per sketch.
func (e *Engine) Relaxation() int { return 2 * e.cfg.Writers * e.cfg.BufferSize }

// NewSketch implements core.Engine. With the eager phase configured
// the sketch starts flat (see engineSketch) and attaches to the pool
// only when it leaves that phase.
func (e *Engine) NewSketch(pool *core.PropagatorPool) core.EngineSketch[uint64, float64, *Compact] {
	s := &engineSketch{eng: e, pool: pool}
	s.start()
	return s
}

// NewAggregator implements core.Engine: a Union accumulator.
func (e *Engine) NewAggregator() core.Aggregator[*Compact] {
	return &unionAggregator{u: NewUnionSeeded(e.cfg.K, e.cfg.Seed)}
}

// QueryCompact implements core.Engine.
func (e *Engine) QueryCompact(c *Compact) float64 { return c.Estimate() }

// MergeCompact implements core.CompactCodec via a two-sketch union.
func (e *Engine) MergeCompact(a, b *Compact) (*Compact, error) {
	u := NewUnionSeeded(e.cfg.K, a.Seed())
	if err := u.Add(a); err != nil {
		return nil, err
	}
	if err := u.Add(b); err != nil {
		return nil, err
	}
	return u.Result(), nil
}

// MarshalCompact implements core.CompactCodec.
func (e *Engine) MarshalCompact(c *Compact) ([]byte, error) { return c.MarshalBinary() }

// UnmarshalCompact implements core.CompactCodec.
func (e *Engine) UnmarshalCompact(data []byte) (*Compact, error) { return UnmarshalCompact(data) }

// unionAggregator adapts Union to core.Aggregator. scratch carries one
// live sketch's samples from under its lock into the union (see
// engineSketch.AddTo), reused from sketch to sketch.
type unionAggregator struct {
	u       *Union
	scratch []uint64
}

func (a *unionAggregator) Add(c *Compact) error { return a.u.Add(c) }
func (a *unionAggregator) Result() *Compact     { return a.u.Result() }

// Bound implements core.FloorAggregator: the union's running Θ, at
// least 1. A sketch whose floor, min(low, Θ), is at or above it cannot
// change the union (see Union.bound).
func (a *unionAggregator) Bound() uint64 { return a.u.bound(hash.MaxThetaValue) }

// engineSketch is one per-key / per-epoch Θ sketch as core.EngineSketch.
//
// §5.3 processes a short stream sequentially, because the relaxation
// r = 2·N·b would otherwise dominate it; while a sketch is in that
// phase none of the concurrent machinery does any work. So a sketch of
// an engine with the eager phase configured starts flat: its whole
// state is mu, the unsorted distinct Θ-space hashes it has seen (exact
// mode, Θ = 1, deduplicated by linear scan) and their count, which
// Query reads wait-free. Every update is visible on return (r = 0), as
// in core's mutex-guarded eager phase, which this replaces for keyed
// tables and windows — in about a hundred bytes plus eight per distinct
// item instead of a Concurrent's ~15 heap objects and a pool
// attachment. The run that would bring the applied-update count to
// EagerLimit builds the Concurrent once, seeded from the hashes and
// with its own eager phase off, and goes through the buffered path (by
// then the stream is ≥ 2/e² long, where r/n ≤ e holds); from there on
// every path is the concurrent one. Engines without an eager phase
// build the Concurrent at construction.
type engineSketch struct {
	eng  *Engine
	pool *core.PropagatorPool

	// mu guards flat, low, applied and floor, and serialises
	// materialization.
	mu   sync.Mutex
	flat []uint64
	// low is the minimum of every hash offered to the flat array since
	// start: never above its smallest sample, and it only falls. (Once
	// concurrent, the global keeps its own; see GlobalSketch.low.)
	low uint64
	// applied and n = len(flat) are below EagerLimit, itself below 2³¹
	// (see NewEngine): 32 bits each keep the struct within 112 B, one Go
	// size class (TestSketchSizeClasses).
	applied int32
	n       atomic.Int32
	// floor is the cell of the table shard that holds the sketch, nil
	// outside a table (see SetFloor). The flat phase lowers it to low;
	// the global, handed the cell when it is built, to its min(low, Θ).
	floor *atomic.Uint64

	// c is nil while flat. ws is allocated before c is published and
	// filled lazily per slot: slot i is only touched by the composite's
	// writer i, or by an owner holding exclusive access.
	c  atomic.Pointer[Concurrent]
	ws []*ConcurrentWriter
}

// closedSketch is what Close leaves in engineSketch.c: every later use
// reaches its nil core sketch (or the nil ws) and panics.
var closedSketch = &Concurrent{}

// start puts a new or just-closed sketch into its initial state:
// concurrent when the engine has no eager phase, flat otherwise.
// Callers hold mu or own the sketch exclusively.
func (s *engineSketch) start() {
	s.applied, s.low = 0, math.MaxUint64
	s.n.Store(0)
	if s.eng.cfg.EagerLimit <= 0 {
		s.materialize(nil)
		return
	}
	s.flat, s.ws = s.flat[:0], nil
	s.c.Store(nil)
}

// materialize builds the Concurrent (seeded from the compact when
// non-nil; an incompatible compact — foreign seed, impossible within
// one engine family — falls back to empty) and publishes it. Core's
// own eager phase is always off: the sketch is past its flat phase, or
// of an engine without one.
// The flat array is dropped: a caller that wants its hashes kept
// passes them in from. Callers hold mu or own the sketch exclusively.
func (s *engineSketch) materialize(from *Compact) {
	cfg := s.eng.cfg
	cfg.EagerLimit = -1
	cfg.Pool = s.pool
	c, err := newConcurrent(cfg, from, s.floor)
	if err != nil {
		c, _ = newConcurrent(cfg, nil, s.floor)
	}
	s.flat = nil
	s.ws = make([]*ConcurrentWriter, cfg.Writers)
	s.c.Store(c)
}

// flatAdd applies a run to a flat sketch and reports whether it did.
// false means the sketch is concurrent — it already was, or this run
// would reach the eager limit and materialized it — and the caller
// takes the writer path.
func (s *engineSketch) flatAdd(vals []uint64, hashed bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c.Load() != nil {
		return false
	}
	seed := s.eng.cfg.Seed
	if int(s.applied)+len(vals) >= s.eng.cfg.EagerLimit {
		// The compact takes ownership of the array.
		s.materialize(newCompactFromUnsorted(s.flat, hash.MaxThetaValue, seed))
		return false
	}
	low := s.low
	for _, h := range vals {
		if !hashed {
			h = hash.ThetaHashUint64(h, seed)
		}
		low = min(low, h)
		if h < hash.MaxThetaValue && !slices.Contains(s.flat, h) {
			s.flat = append(s.flat, h)
		}
	}
	if low < s.low && s.floor != nil {
		// Before n.Store and the unlock: a rollup that skipped the
		// shard read its cell before these samples existed.
		lowerCell(s.floor, low)
	}
	s.low = low
	s.applied += int32(len(vals))
	s.n.Store(int32(len(s.flat)))
	return true
}

func (s *engineSketch) writer(i int) *ConcurrentWriter {
	if s.ws[i] == nil {
		s.ws[i] = s.c.Load().Writer(i)
	}
	return s.ws[i]
}

func (s *engineSketch) Update(i int, v uint64) {
	if s.c.Load() == nil && s.flatAdd([]uint64{v}, false) {
		return
	}
	s.writer(i).UpdateUint64(v)
}

func (s *engineSketch) UpdateBatch(i int, vals []uint64) {
	if s.c.Load() == nil && s.flatAdd(vals, false) {
		return
	}
	s.writer(i).UpdateUint64Batch(vals)
}

func (s *engineSketch) UpdateHashedBatch(i int, hs []uint64) {
	if s.c.Load() == nil && s.flatAdd(hs, true) {
		return
	}
	s.writer(i).UpdateHashBatch(hs)
}

// Flush on a flat sketch is a no-op: nothing is ever buffered.
func (s *engineSketch) Flush(i int) {
	if s.c.Load() != nil && s.ws[i] != nil {
		s.ws[i].Flush()
	}
}

func (s *engineSketch) Query() float64 {
	if c := s.c.Load(); c != nil {
		return c.Estimate()
	}
	return float64(s.n.Load())
}

// CalcHint implements core.FilterSketch (Algorithm 1 line 24): the
// last published Θ. None while the sketch is flat or in exact mode
// (every hash would pass) or when the engine was built with
// DisableFiltering. Θ only falls, so the hint stays a valid static
// shouldAdd threshold until a Reset (see core.FilterEngine).
func (s *engineSketch) CalcHint() (uint64, bool) {
	c := s.c.Load()
	if c == nil || s.eng.cfg.DisableFiltering {
		return 0, false
	}
	t := c.global.PublishedTheta()
	return t, t < hash.MaxThetaValue
}

// Compact of a flat sketch copies the hashes under mu (the only point
// where a compact briefly waits for a writer); like every compact it
// leaves unsorted.
func (s *engineSketch) Compact() *Compact {
	s.mu.Lock()
	if c := s.c.Load(); c != nil {
		s.mu.Unlock()
		return c.Compact()
	}
	hs := slices.Clone(s.flat)
	s.mu.Unlock()
	return newCompactFromUnsorted(hs, hash.MaxThetaValue, s.eng.cfg.Seed)
}

// AddTo implements core.EngineSketch: the samples reach a Θ union with
// no compact in between. Under the lock Compact would take — mu while
// flat, the global's once concurrent — only the samples below the
// union's running Θ are copied into the aggregator's scratch; the union
// inserts them after the lock is released, so no union insert or
// rebuild ever holds up a writer or the propagator. The union ends
// exactly as Add(Compact()) leaves it: its running Θ only falls, so a
// sample left behind is one Add would skip too, and the rest are
// offered in the order Compact would have collected them.
//
// A sketch whose low — the minimum of every hash ever offered to it,
// never above its smallest sample — is at or above the union's bound
// has nothing to copy, and is not scanned: it only folds its Θ in.
// Once the union has seen a few large keys, that is most of a skewed
// table.
func (s *engineSketch) AddTo(agg core.Aggregator[*Compact]) error {
	a, ok := agg.(*unionAggregator)
	if !ok {
		return agg.Add(s.Compact())
	}
	if a.u.gadget.seed != s.eng.cfg.Seed {
		return ErrSeedMismatch
	}
	hs := a.scratch
	s.mu.Lock()
	if c := s.c.Load(); c != nil {
		s.mu.Unlock()
		hs = c.global.appendTo(hs, a.u)
	} else {
		if lim := a.u.bound(hash.MaxThetaValue); s.low < lim {
			hs = appendBelow(hs, s.flat, lim, len(s.flat))
		}
		s.mu.Unlock()
	}
	a.u.insert(hs, false)
	// Stored back only when it grew: the workers of a parallel rollup
	// each own an aggregator, small enough to share a cache line with
	// another's, so a store per key would bounce that line between them
	// (~15 % of BenchmarkTableRollup/wide at two workers).
	if cap(hs) != cap(a.scratch) {
		a.scratch = hs[:0]
	}
	return nil
}

// SetFloor implements core.FloorSketch: from now on the sketch keeps
// cell at or below its floor, min(low, Θ) — low while flat, where Θ is
// 1; the global's own once concurrent. A table calls it once, when it
// creates the key.
func (s *engineSketch) SetFloor(cell *atomic.Uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.floor = cell
	if c := s.c.Load(); c != nil {
		c.global.setFloor(cell)
		return
	}
	lowerCell(cell, s.low)
}

// Close closes the concurrent sketch, if there is one, and drops the
// state: writer entry caches may keep a reference to an evicted table
// entry (and through it, this adapter) until the slot is overwritten,
// and releasing the sketch graph here bounds that retention to the
// adapter stub. Any use after Close is a contract violation and fails
// loudly (see closedSketch).
func (s *engineSketch) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c.Load()
	if c == closedSketch {
		return
	}
	if c != nil {
		c.Close()
	}
	s.c.Store(closedSketch)
	s.ws, s.flat = nil, nil
}

// Reset implements core.EngineSketch: equivalent to Close followed by a
// fresh sketch on the same executor — flat again when the engine has an
// eager phase. The caller must hold the same exclusivity as for Close.
func (s *engineSketch) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.c.Load(); c != nil {
		c.Close()
	}
	s.start()
}
