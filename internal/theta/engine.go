package theta

import (
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
)

// NewEngine returns a Θ engine for the given configuration (zero fields
// take the ConcurrentConfig defaults). The Pool field is ignored: the
// executor is chosen per sketch by NewSketch.
func NewEngine(cfg ConcurrentConfig) *Engine {
	cfg.Pool = nil
	return &Engine{cfg: cfg.withDefaults()}
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

// NewSketch implements core.Engine.
func (e *Engine) NewSketch(pool *core.PropagatorPool) core.EngineSketch[uint64, float64, *Compact] {
	return e.NewSketchAffine(pool, 0)
}

// NewSketchAffine implements core.Engine: NewSketch pinned to the pool
// worker the affinity key maps to. With the eager phase configured the
// sketch starts flat (see engineSketch) and attaches to the pool only
// when it leaves that phase.
func (e *Engine) NewSketchAffine(pool *core.PropagatorPool, affinityKey uint64) core.EngineSketch[uint64, float64, *Compact] {
	s := &engineSketch{eng: e, pool: pool, aff: affinityKey}
	s.start(nil)
	return s
}

// NewSketchSeeded implements core.ScalableEngine: the new sketch's
// global starts from the compact — sample set and Θ — so a promoted
// hot key keeps its history and its pre-filtering strength. A compact
// with a foreign seed (impossible within one engine family) falls back
// to an empty sketch.
func (e *Engine) NewSketchSeeded(pool *core.PropagatorPool, affinityKey uint64, from *Compact) core.EngineSketch[uint64, float64, *Compact] {
	s := &engineSketch{eng: e, pool: pool, aff: affinityKey}
	s.start(from)
	return s
}

// maxScaledBuffer caps hot-key buffer growth: past this, handoffs are
// no longer the bottleneck and r = 2·N·b staleness keeps doubling for
// nothing.
const maxScaledBuffer = 1 << 10

// ScaleUp implements core.ScalableEngine: doubles the local buffer b —
// handoffs (and the writer's propagation round-trip waits) halve,
// while the per-sketch relaxation r = 2·N·b doubles — and disables the
// eager phase: a key only reaches a promotion after a volume threshold
// of updates, far past the small-stream regime the eager phase exists
// for, and rebuilding into a fresh eager phase would re-serialise its
// writers for no accuracy gain. k is left unchanged: growing it would
// weaken the Θ pre-filter (admitting ~2× buffered updates per
// doubling), cancelling the handoff win — accuracy-directed scaling
// belongs to an explicit larger-K table config, not the hot-key path.
func (e *Engine) ScaleUp() (core.Engine[uint64, float64, *Compact], bool) {
	cfg := e.cfg
	if cfg.BufferSize >= maxScaledBuffer {
		return nil, false
	}
	cfg.BufferSize *= 2
	cfg.EagerLimit = -1
	return NewEngine(cfg), true
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
	aff  uint64

	// mu guards flat and applied, and serialises materialization.
	mu      sync.Mutex
	flat    []uint64
	applied int
	n       atomic.Int64 // len(flat)

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
// concurrent when it is seeded or the engine has no eager phase, flat
// otherwise. Callers hold mu or own the sketch exclusively.
func (s *engineSketch) start(from *Compact) {
	s.applied = 0
	s.n.Store(0)
	if from != nil || s.eng.cfg.EagerLimit <= 0 {
		s.materialize(from)
		return
	}
	s.flat, s.ws = s.flat[:0], nil
	s.c.Store(nil)
}

// materialize builds the Concurrent (seeded from the compact when
// non-nil; an incompatible compact — foreign seed, impossible within
// one engine family — falls back to empty) and publishes it. Core's
// own eager phase is always off: the sketch is past its flat phase,
// seeded with a history that already is, or of an engine without one.
// The flat array is dropped: a caller that wants its hashes kept
// passes them in from. Callers hold mu or own the sketch exclusively.
func (s *engineSketch) materialize(from *Compact) {
	cfg := s.eng.cfg
	cfg.EagerLimit = -1
	cfg.Pool = s.pool
	cfg.AffinityKey = s.aff
	c, err := NewConcurrentFrom(cfg, from)
	if err != nil {
		c = NewConcurrent(cfg)
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
	if s.applied+len(vals) >= s.eng.cfg.EagerLimit {
		// The compact takes ownership of the array.
		s.materialize(newCompactFromUnsorted(s.flat, hash.MaxThetaValue, seed))
		return false
	}
	for _, h := range vals {
		if !hashed {
			h = hash.ThetaHashUint64(h, seed)
		}
		if h < hash.MaxThetaValue && !slices.Contains(s.flat, h) {
			s.flat = append(s.flat, h)
		}
	}
	s.applied += len(vals)
	s.n.Store(int64(len(s.flat)))
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
// DisableFiltering. Θ only falls and a seeded rebuild absorbs it, so
// the hint stays a valid static shouldAdd threshold for as long as the
// key lives.
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
func (s *engineSketch) AddTo(agg core.Aggregator[*Compact]) error {
	a, ok := agg.(*unionAggregator)
	if !ok {
		return agg.Add(s.Compact())
	}
	if a.u.gadget.seed != s.eng.cfg.Seed {
		return ErrSeedMismatch
	}
	var hs []uint64
	s.mu.Lock()
	if c := s.c.Load(); c != nil {
		s.mu.Unlock()
		hs = c.global.appendTo(a.scratch, a.u)
	} else {
		hs = appendBelow(a.scratch, s.flat, a.u.bound(hash.MaxThetaValue), len(s.flat))
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
	s.start(nil)
}
