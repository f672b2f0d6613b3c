package theta

import (
	"fmt"
	"math"
	"slices"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
)

// Engine binds a concurrent-Θ configuration into the generic
// core.Engine interface, and is the Θ family of core.FamilySketch: the
// one description of the Θ lifecycle that keyed tables and windowed
// sketches instantiate per key / per epoch, and that a standalone
// Concurrent is built from. Value type is the raw uint64 item, snapshot
// type the unique-count estimate, compact type the immutable *Compact.
type Engine struct {
	cfg  ConcurrentConfig
	core core.Config
}

var (
	_ core.Family[uint64, float64, *Compact]            = (*Engine)(nil)
	_ core.FilterEngine[uint64]                         = (*Engine)(nil)
	_ core.StringEngine[uint64]                         = (*Engine)(nil)
	_ core.FlatFamily[uint64, float64, *Compact]        = (*Engine)(nil)
	_ core.FloorAggregator                              = (*unionAggregator)(nil)
	_ core.InPlaceAggregator[uint64, float64, *Compact] = (*unionAggregator)(nil)
	_ core.FilterSketch[uint64]                         = (*core.FamilySketch[uint64, float64, *Compact])(nil)
	_ core.FloorSketch                                  = (*core.FamilySketch[uint64, float64, *Compact])(nil)
)

// NewEngine returns a Θ engine for the given configuration (zero fields
// take the ConcurrentConfig defaults). The Pool field is ignored: the
// executor is chosen per sketch by NewSketch. Its sketches start flat
// (core.FlatFamily) below the eager limit 2/e². It panics on an eager
// limit of 2³¹ or more: a flat sketch counts its updates in 32 bits,
// and that many distinct hashes would need a 16 GiB flat array anyway.
func NewEngine(cfg ConcurrentConfig) *Engine {
	e := newEngine(cfg)
	if e.cfg.EagerLimit > math.MaxInt32 {
		panic(fmt.Sprintf("theta: eager limit %d is 2^31 or more (MaxError %g); a flat sketch counts below 2^31", e.cfg.EagerLimit, e.cfg.MaxError))
	}
	return e
}

// newEngine resolves cfg's defaults and its framework configuration.
func newEngine(cfg ConcurrentConfig) *Engine {
	cfg.Pool = nil
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, core: core.Config{
		Writers:         cfg.Writers,
		BufferSize:      cfg.BufferSize,
		EagerLimit:      cfg.EagerLimit,
		DoubleBuffering: !cfg.DisableDoubleBuffering,
	}}
	if cfg.AdaptiveBuffering {
		// In exact mode (hint Θ = 1) keep the conservative b; once in
		// estimation mode grow to b_est = e·K/(2N) (see the config
		// field's doc comment for the error argument).
		base := cfg.BufferSize
		bEst := max(int(cfg.MaxError*float64(cfg.K)/(2*float64(cfg.Writers))), base)
		e.core.BufferAdaptor = func(hint uint64, cur int) int {
			if hint >= hash.MaxThetaValue {
				return base
			}
			return bEst
		}
	}
	return e
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

// AppendHashValues implements core.Engine: the fused batch loop with a
// hint no Θ-space hash reaches, so every value's hash is kept.
func (e *Engine) AppendHashValues(dst, vs []uint64) []uint64 {
	return hash.AppendThetaUint64Filtered(dst, vs, e.cfg.Seed, math.MaxUint64)
}

// ShouldAdd implements core.FilterEngine (Algorithm 1 line 26): only
// hashes below the hinted Θ can affect the sketch.
func (e *Engine) ShouldAdd(hint, h uint64) bool { return h < hint }

// NumWriters implements core.Engine.
func (e *Engine) NumWriters() int { return e.cfg.Writers }

// Relaxation implements core.Engine: the bound r of a Concurrent of the
// same configuration (core.Config.Relaxation).
func (e *Engine) Relaxation() int { return e.core.Relaxation() }

// NewSketch implements core.Engine. With the eager phase configured
// the sketch starts flat and attaches to the pool only when it leaves
// that phase.
func (e *Engine) NewSketch(pool *core.PropagatorPool) core.EngineSketch[uint64, float64, *Compact] {
	return core.NewFamilySketch[uint64, float64, *Compact](e, pool)
}

// Config implements core.Family.
func (e *Engine) Config() core.Config { return e.core }

// NewGlobal implements core.Family: a flat sketch's hashes reach the
// global through AbsorbCompact, which keeps the k smallest whatever
// order they lie in.
func (e *Engine) NewGlobal(flat []uint64) core.FamilyGlobal[uint64, float64, *Compact] {
	g := e.newGlobal()
	if len(flat) > 0 {
		// Same seed: it cannot fail.
		_ = g.AbsorbCompact(e.FlatCompact(flat))
	}
	return g
}

func (e *Engine) newGlobal() *GlobalSketch {
	var g *GlobalSketch
	if e.cfg.UseKMV {
		g = NewGlobalKMV(e.cfg.K, e.cfg.Seed)
	} else {
		g = NewGlobal(e.cfg.K, e.cfg.Seed)
	}
	g.noFilter, g.b = e.cfg.DisableFiltering, int32(e.cfg.BufferSize)
	return g
}

// Batch implements core.Family: Θ's pre-filter, the hashes below the
// writer's Θ.
func (e *Engine) Batch(g core.FamilyGlobal[uint64, float64, *Compact], scratch *[]uint64, hs []uint64, hint uint64) []uint64 {
	hint = g.(*GlobalSketch).filterHint(hint)
	out := (*scratch)[:0]
	for _, h := range hs {
		if h < hint {
			out = append(out, h)
		}
	}
	*scratch = out
	return out
}

// InPlace implements core.Family: a sketch is read in place into its
// own engine's unions.
func (e *Engine) InPlace(agg core.Aggregator[*Compact]) core.InPlaceAggregator[uint64, float64, *Compact] {
	if a, ok := agg.(*unionAggregator); ok {
		return a
	}
	return nil
}

// FlatAdd implements core.FlatFamily: the flat phase keeps the distinct
// Θ-space hashes below 1 (exact mode, deduplicated by linear scan), and
// a sketch's floor is the least hash ever offered to it.
func (e *Engine) FlatAdd(flat []uint64, h uint64) ([]uint64, uint64) {
	if h < hash.MaxThetaValue && !slices.Contains(flat, h) {
		flat = append(flat, h)
	}
	return flat, h
}

// FlatQuery implements core.FlatFamily: in exact mode the estimate is
// the count.
func (e *Engine) FlatQuery(n int) float64 { return float64(n) }

// FlatCompact implements core.FlatFamily; like every compact it leaves
// unsorted.
func (e *Engine) FlatCompact(hs []uint64) *Compact {
	return newCompactFromUnsorted(hs, hash.MaxThetaValue, e.cfg.Seed)
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

// UnmarshalCompacts implements core.CompactCodec: the compacts share
// one slab (see UnmarshalCompacts).
func (e *Engine) UnmarshalCompacts(blobs [][]byte) ([]*Compact, error) {
	return UnmarshalCompacts(blobs)
}

// DetachCompact implements core.CompactCodec: a copy that owns its
// samples.
func (e *Engine) DetachCompact(c *Compact) *Compact { return c.clone() }

// unionAggregator adapts Union to core.Aggregator. scratch carries one
// live sketch's samples from under its lock into the union, reused from
// sketch to sketch.
//
// It reads a live sketch in place (core.InPlaceAggregator): under the
// lock Compact would take, only the samples below the union's running Θ
// are copied, and the union inserts them after the lock is released.
// The union ends exactly as Add(Compact()) leaves it: its running Θ
// only falls, so a sample left behind is one Add would skip too, and
// the rest are offered in the order Compact would have collected them.
// A sketch whose low — the minimum of every hash ever offered to it,
// never above its smallest sample — is at or above the union's bound
// has nothing to copy, and is not scanned: it only folds its Θ in. Once
// the union has seen a few large keys, that is most of a skewed table.
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

// AppendFlat implements core.InPlaceAggregator. A flat sketch is in
// exact mode: its Θ is 1.
func (a *unionAggregator) AppendFlat(fam core.Family[uint64, float64, *Compact], flat []uint64, low uint64) ([]uint64, error) {
	if err := a.accepts(fam); err != nil {
		return nil, err
	}
	if lim := a.u.bound(hash.MaxThetaValue); low < lim {
		return appendBelow(a.scratch, flat, lim, len(flat)), nil
	}
	return nil, nil
}

// accepts reports whether fam's sketches can enter the union.
func (a *unionAggregator) accepts(fam core.Family[uint64, float64, *Compact]) error {
	if e, ok := fam.(*Engine); !ok || e.cfg.Seed != a.u.gadget.seed {
		return ErrSeedMismatch
	}
	return nil
}

// AppendGlobal implements core.InPlaceAggregator.
func (a *unionAggregator) AppendGlobal(fam core.Family[uint64, float64, *Compact], g core.FamilyGlobal[uint64, float64, *Compact]) ([]uint64, error) {
	if err := a.accepts(fam); err != nil {
		return nil, err
	}
	return g.(*GlobalSketch).appendTo(a.scratch, a.u), nil
}

// Insert implements core.InPlaceAggregator. The scratch is stored back
// only when it grew: the workers of a parallel rollup each own an
// aggregator, small enough to share a cache line with another's, so a
// store per key would bounce that line between them (~15 % of
// BenchmarkTableRollup/wide at two workers).
func (a *unionAggregator) Insert(hs []uint64) {
	a.u.insert(hs, false)
	if cap(hs) != cap(a.scratch) {
		a.scratch = hs[:0]
	}
}
