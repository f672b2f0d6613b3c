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

var _ core.Family[float64, *Snapshot, *Sketch] = (*Engine)(nil)

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

// AppendHashValues implements core.Engine.
func (e *Engine) AppendHashValues(dst, vs []float64) []float64 { return append(dst, vs...) }

// NumWriters implements core.Engine.
func (e *Engine) NumWriters() int { return e.cfg.Writers }

// Relaxation implements core.Engine (core.Config.Relaxation).
func (e *Engine) Relaxation() int { return e.Config().Relaxation() }

// NewSketch implements core.Engine. A quantiles sketch has no flat
// phase: it is concurrent from the start, with core's eager phase.
func (e *Engine) NewSketch(pool *core.PropagatorPool) core.EngineSketch[float64, *Snapshot, *Sketch] {
	return core.NewFamilySketch[float64, *Snapshot, *Sketch](e, pool)
}

// Config implements core.Family.
func (e *Engine) Config() core.Config {
	return core.Config{
		Writers:         e.cfg.Writers,
		BufferSize:      e.cfg.BufferSize,
		EagerLimit:      e.cfg.EagerLimit,
		DoubleBuffering: true,
	}
}

// NewGlobal implements core.Family.
func (e *Engine) NewGlobal([]float64) core.FamilyGlobal[float64, *Snapshot, *Sketch] {
	return newGlobal(e.cfg.K, e.cfg.Seed)
}

// Batch implements core.Family: samples are ingested as they are, and
// nothing is filtered.
func (e *Engine) Batch(_ core.FamilyGlobal[float64, *Snapshot, *Sketch], _ *[]float64, vals []float64, _ uint64) []float64 {
	return vals
}

// InPlace implements core.Family: aggregators take compacts.
func (e *Engine) InPlace(core.Aggregator[*Sketch]) core.InPlaceAggregator[float64, *Snapshot, *Sketch] {
	return nil
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

// UnmarshalCompacts implements core.CompactCodec: one sketch per blob.
func (e *Engine) UnmarshalCompacts(blobs [][]byte) ([]*Sketch, error) {
	return core.UnmarshalEach(blobs, Unmarshal)
}

// DetachCompact implements core.CompactCodec: decoded sketches share
// nothing.
func (e *Engine) DetachCompact(c *Sketch) *Sketch { return c }

// mergeAggregator adapts a sequential Sketch to core.Aggregator.
type mergeAggregator struct{ s *Sketch }

func (a *mergeAggregator) Add(c *Sketch) error {
	a.s.Merge(c)
	return nil
}
func (a *mergeAggregator) Result() *Sketch { return a.s }
