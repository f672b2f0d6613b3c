package hll

import (
	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
)

// Engine binds a concurrent-HLL configuration into the generic
// core.Engine interface. Value type is the raw uint64 item, snapshot
// type the cardinality estimate, compact type the register-wise
// *Sketch copy.
type Engine struct {
	cfg ConcurrentConfig
}

var (
	_ core.Engine[uint64, float64, *Sketch] = (*Engine)(nil)
	_ core.FilterEngine[uint64]             = (*Engine)(nil)
	_ core.StringEngine[uint64]             = (*Engine)(nil)
	_ core.FilterSketch[uint64]             = (*engineSketch)(nil)
)

// NewEngine returns an HLL engine for the given configuration (zero
// fields take the ConcurrentConfig defaults). The Pool field is
// ignored: the executor is chosen per sketch by NewSketch.
func NewEngine(cfg ConcurrentConfig) *Engine {
	cfg.Pool = nil
	return &Engine{cfg: cfg.withDefaults()}
}

// Kind implements core.CompactCodec.
func (e *Engine) Kind() byte { return core.KindHLL }

// Param implements core.CompactCodec: the precision p.
func (e *Engine) Param() uint32 { return uint32(e.cfg.Precision) }

// Seed returns the engine's shared hash seed.
func (e *Engine) Seed() uint64 { return e.cfg.Seed }

// HashString maps a string item to its 64-bit hash (zero-alloc); used
// by keyed string-batch ingestion to hash in the grouping pass.
func (e *Engine) HashString(s string) uint64 {
	h, _ := hash.Sum128String(s, e.cfg.Seed)
	return h
}

// HashValue implements core.Engine: the item's 64-bit register hash.
func (e *Engine) HashValue(v uint64) uint64 {
	h, _ := hash.SumUint64(v, e.cfg.Seed)
	return h
}

// ShouldAdd implements core.FilterEngine (Algorithm 1 line 26): hint
// is a lower bound on every register, so only a hash whose rank exceeds
// it can raise one.
func (e *Engine) ShouldAdd(hint, h uint64) bool { return uint64(rank(h, e.cfg.Precision)) > hint }

// NumWriters implements core.Engine.
func (e *Engine) NumWriters() int { return e.cfg.Writers }

// Relaxation implements core.Engine: r = 2·N·b per sketch.
func (e *Engine) Relaxation() int { return 2 * e.cfg.Writers * e.cfg.BufferSize }

// NewSketch implements core.Engine.
func (e *Engine) NewSketch(pool *core.PropagatorPool) core.EngineSketch[uint64, float64, *Sketch] {
	return &engineSketch{
		eng:  e,
		pool: pool,
		c:    e.newConcurrent(pool),
		ws:   make([]*ConcurrentWriter, e.cfg.Writers),
	}
}

func (e *Engine) newConcurrent(pool *core.PropagatorPool) *Concurrent {
	cfg := e.cfg
	cfg.Pool = pool
	return NewConcurrent(cfg)
}

// NewAggregator implements core.Engine: one accumulating sketch with
// register-wise max merges.
func (e *Engine) NewAggregator() core.Aggregator[*Sketch] {
	return &mergeAggregator{s: NewSeeded(e.cfg.Precision, e.cfg.Seed)}
}

// QueryCompact implements core.Engine.
func (e *Engine) QueryCompact(c *Sketch) float64 { return c.Estimate() }

// MergeCompact implements core.CompactCodec.
func (e *Engine) MergeCompact(a, b *Sketch) (*Sketch, error) {
	out := a.Clone()
	if err := out.Merge(b); err != nil {
		return nil, err
	}
	return out, nil
}

// MarshalCompact implements core.CompactCodec.
func (e *Engine) MarshalCompact(c *Sketch) ([]byte, error) { return c.MarshalBinary() }

// UnmarshalCompact implements core.CompactCodec.
func (e *Engine) UnmarshalCompact(data []byte) (*Sketch, error) { return Unmarshal(data) }

// mergeAggregator adapts a sequential Sketch to core.Aggregator.
type mergeAggregator struct{ s *Sketch }

func (a *mergeAggregator) Add(c *Sketch) error { return a.s.Merge(c) }
func (a *mergeAggregator) Result() *Sketch     { return a.s }

// engineSketch adapts one Concurrent to core.EngineSketch; see the Θ
// counterpart for the writer-slot laziness contract.
type engineSketch struct {
	eng  *Engine
	pool *core.PropagatorPool
	c    *Concurrent
	ws   []*ConcurrentWriter
}

func (s *engineSketch) writer(i int) *ConcurrentWriter {
	if s.ws[i] == nil {
		s.ws[i] = s.c.Writer(i)
	}
	return s.ws[i]
}

func (s *engineSketch) Update(i int, v uint64)               { s.writer(i).UpdateUint64(v) }
func (s *engineSketch) UpdateBatch(i int, vals []uint64)     { s.writer(i).UpdateUint64Batch(vals) }
func (s *engineSketch) UpdateHashedBatch(i int, hs []uint64) { s.writer(i).UpdateHashBatch(hs) }
func (s *engineSketch) Flush(i int) {
	if s.ws[i] != nil {
		s.ws[i].Flush()
	}
}
func (s *engineSketch) Query() float64 { return s.c.Estimate() }

// CalcHint implements core.FilterSketch (Algorithm 1 line 24): the
// register floor the global sketch last published; none while some
// register is still 0. Registers only rise, so the floor only rises
// and a hint once given never lets a hash through that could matter
// later — the eager path does not move the published floor, which only
// makes it lower. Reset starts a new global at floor 0; its owner must
// make writers forget the old hint first, as a table's Sweep does.
func (s *engineSketch) CalcHint() (uint64, bool) {
	f := uint64(s.c.global.floor.Load())
	return f, f > 0
}
func (s *engineSketch) Compact() *Sketch { return s.c.Compact() }

// AddTo implements core.EngineSketch as Add(Compact()).
func (s *engineSketch) AddTo(agg core.Aggregator[*Sketch]) error { return agg.Add(s.Compact()) }

// Close releases the sketch graph (see the Θ counterpart).
func (s *engineSketch) Close() {
	if s.c != nil {
		s.c.Close()
		s.c = nil
		s.ws = nil
	}
}

// Reset implements core.EngineSketch; caller holds Close-level
// exclusivity.
func (s *engineSketch) Reset() {
	s.c.Close()
	s.c = s.eng.newConcurrent(s.pool)
	clear(s.ws)
}
