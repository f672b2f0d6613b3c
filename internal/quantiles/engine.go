package quantiles

import (
	"github.com/fcds/fcds/internal/core"
)

// Engine binds a concurrent-quantiles configuration into the generic
// core.Engine interface. Value type is the raw float64 sample, snapshot
// type the immutable *Snapshot, compact type the sequential *Sketch.
type Engine struct {
	cfg ConcurrentConfig
}

var _ core.Engine[float64, *Snapshot, *Sketch] = (*Engine)(nil)

// NewEngine returns a quantiles engine for the given configuration
// (zero fields take the ConcurrentConfig defaults). The Pool field is
// ignored: the executor is chosen per sketch by NewSketch.
func NewEngine(cfg ConcurrentConfig) *Engine {
	cfg.Pool = nil
	return &Engine{cfg: cfg.withDefaults()}
}

// Kind implements core.CompactCodec.
func (e *Engine) Kind() byte { return core.KindQuantiles }

// Param implements core.CompactCodec: the accuracy parameter k.
func (e *Engine) Param() uint32 { return uint32(e.cfg.K) }

// HashValue implements core.Engine: quantiles ingest raw samples.
func (e *Engine) HashValue(v float64) float64 { return v }

// NumWriters implements core.Engine.
func (e *Engine) NumWriters() int { return e.cfg.Writers }

// Relaxation implements core.Engine: r = 2·N·b per sketch.
func (e *Engine) Relaxation() int { return 2 * e.cfg.Writers * e.cfg.BufferSize }

// NewSketch implements core.Engine.
func (e *Engine) NewSketch(pool *core.PropagatorPool) core.EngineSketch[float64, *Snapshot, *Sketch] {
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

// NewAggregator implements core.Engine: one accumulating sketch.
func (e *Engine) NewAggregator() core.Aggregator[*Sketch] {
	return &mergeAggregator{s: New(e.cfg.K)}
}

// QueryCompact implements core.Engine.
func (e *Engine) QueryCompact(c *Sketch) *Snapshot { return c.Snapshot() }

// MergeCompact implements core.CompactCodec.
func (e *Engine) MergeCompact(a, b *Sketch) (*Sketch, error) {
	out := New(e.cfg.K)
	out.Merge(a)
	out.Merge(b)
	return out, nil
}

// MarshalCompact implements core.CompactCodec.
func (e *Engine) MarshalCompact(c *Sketch) ([]byte, error) { return c.MarshalBinary() }

// UnmarshalCompact implements core.CompactCodec.
func (e *Engine) UnmarshalCompact(data []byte) (*Sketch, error) { return Unmarshal(data) }

// mergeAggregator adapts a sequential Sketch to core.Aggregator.
type mergeAggregator struct{ s *Sketch }

func (a *mergeAggregator) Add(c *Sketch) error {
	a.s.Merge(c)
	return nil
}
func (a *mergeAggregator) Result() *Sketch { return a.s }

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

func (s *engineSketch) Update(i int, v float64)           { s.writer(i).Update(v) }
func (s *engineSketch) UpdateBatch(i int, vals []float64) { s.writer(i).UpdateBatch(vals) }

// UpdateHashedBatch is UpdateBatch: quantiles values are raw samples,
// not hashes, so there is no pre-hashed ingestion distinction.
func (s *engineSketch) UpdateHashedBatch(i int, vals []float64) { s.writer(i).UpdateBatch(vals) }

func (s *engineSketch) Flush(i int) {
	if s.ws[i] != nil {
		s.ws[i].Flush()
	}
}
func (s *engineSketch) Query() *Snapshot { return s.c.Snapshot() }
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
