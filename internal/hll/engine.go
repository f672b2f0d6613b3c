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
	_ core.Family[uint64, float64, *Sketch] = (*Engine)(nil)
	_ core.FilterEngine[uint64]             = (*Engine)(nil)
	_ core.StringEngine[uint64]             = (*Engine)(nil)
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

// AppendHashValues implements core.Engine.
func (e *Engine) AppendHashValues(dst, vs []uint64) []uint64 {
	return hash.AppendSumUint64(dst, vs, e.cfg.Seed)
}

// ShouldAdd implements core.FilterEngine (Algorithm 1 line 26): hint
// is a lower bound on every register, so only a hash whose rank exceeds
// it can raise one.
func (e *Engine) ShouldAdd(hint, h uint64) bool { return uint64(rank(h, e.cfg.Precision)) > hint }

// NumWriters implements core.Engine.
func (e *Engine) NumWriters() int { return e.cfg.Writers }

// Relaxation implements core.Engine (core.Config.Relaxation).
func (e *Engine) Relaxation() int { return e.Config().Relaxation() }

// NewSketch implements core.Engine. An HLL sketch has no flat phase:
// it is concurrent from the start, with core's eager phase.
func (e *Engine) NewSketch(pool *core.PropagatorPool) core.EngineSketch[uint64, float64, *Sketch] {
	return core.NewFamilySketch[uint64, float64, *Sketch](e, pool)
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
func (e *Engine) NewGlobal([]uint64) core.FamilyGlobal[uint64, float64, *Sketch] {
	return NewGlobal(e.cfg.Precision, e.cfg.Seed)
}

// Batch implements core.Family: hash raw values; keep every hash (see
// GlobalSketch.CalcHint).
func (e *Engine) Batch(_ core.FamilyGlobal[uint64, float64, *Sketch], scratch *[]uint64, vals []uint64, hashed bool, _ uint64) []uint64 {
	if hashed {
		return vals
	}
	*scratch = hash.AppendSumUint64((*scratch)[:0], vals, e.cfg.Seed)
	return *scratch
}

// InPlace implements core.Family: aggregators take compacts.
func (e *Engine) InPlace(core.Aggregator[*Sketch]) core.InPlaceAggregator[uint64, float64, *Sketch] {
	return nil
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

// UnmarshalCompacts implements core.CompactCodec: one sketch per blob.
func (e *Engine) UnmarshalCompacts(blobs [][]byte) ([]*Sketch, error) {
	return core.UnmarshalEach(blobs, Unmarshal)
}

// DetachCompact implements core.CompactCodec: decoded sketches share
// nothing.
func (e *Engine) DetachCompact(c *Sketch) *Sketch { return c }

// mergeAggregator adapts a sequential Sketch to core.Aggregator.
type mergeAggregator struct{ s *Sketch }

func (a *mergeAggregator) Add(c *Sketch) error { return a.s.Merge(c) }
func (a *mergeAggregator) Result() *Sketch     { return a.s }
