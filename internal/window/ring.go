package window

import (
	"sync/atomic"

	"github.com/fcds/fcds/internal/core"
)

// ring is one sketch over a window of epochs, and itself a
// core.EngineSketch: the live sketch of the active epoch, the compacts
// of the sealed epochs still in the window (§5.1's composable snapshot
// is what lets a finished epoch become a compact that merges), and
// their union, built lazily by the first read after a seal.
//
// Writers reach only the live sketch. Reads run beside writers and each
// other, never beside a seal: the owner seals with exclusive access (a
// windowed table's Sweep holds the key's shard and entry locks, Windowed
// its RW lock), so no reader sees a half-sealed ring.
type ring[V, S, C any] struct {
	// The write path reads live, filt and dirty: kept first, so that
	// most rings have them in one cache line.
	live core.EngineSketch[V, S, C]
	filt core.FilterSketch[V] // live as a FilterSketch, nil if it is none
	// dirty is set by the first update of an epoch, so a seal can tell
	// an empty live sketch without looking inside it. epoch is the epoch
	// live collects.
	dirty atomic.Bool
	epoch int64

	eng    core.Engine[V, S, C]
	c      *clock            // the window: its counters
	sealed []sealedEpoch[C]  // oldest first; epochs that took updates
	union  atomic.Pointer[C] // union of sealed once built; nil until then
}

type sealedEpoch[C any] struct {
	epoch int64
	c     C
}

func newRing[V, S, C any](eng core.Engine[V, S, C], live core.EngineSketch[V, S, C], c *clock) *ring[V, S, C] {
	r := &ring[V, S, C]{eng: eng, live: live, c: c, epoch: c.epoch.Load()}
	r.filt, _ = live.(core.FilterSketch[V])
	return r
}

// mark records that the live sketch is taking n updates.
func (r *ring[V, S, C]) mark(n int) {
	if n > 0 && !r.dirty.Load() {
		r.dirty.Store(true)
	}
}

func (r *ring[V, S, C]) Update(i int, v V)         { r.mark(1); r.live.Update(i, v) }
func (r *ring[V, S, C]) UpdateBatch(i int, vs []V) { r.mark(len(vs)); r.live.UpdateBatch(i, vs) }
func (r *ring[V, S, C]) UpdateHashedBatch(i int, hs []V) {
	r.mark(len(hs))
	r.live.UpdateHashedBatch(i, hs)
}

func (r *ring[V, S, C]) Flush(i int) { r.live.Flush(i) }

// flushAll flushes every writer slot; the caller owns them all.
func (r *ring[V, S, C]) flushAll() {
	for i := 0; i < r.eng.NumWriters(); i++ {
		r.live.Flush(i)
	}
}

// CalcHint implements core.FilterSketch with the live sketch's hint: a
// writer filters only what the active epoch would discard. The hint
// rises again when a seal resets the live sketch; the owner's seal
// must make writers forget it first (see table.Table.Sweep).
func (r *ring[V, S, C]) CalcHint() (h V, ok bool) {
	if r.filt == nil {
		return h, false
	}
	return r.filt.CalcHint()
}

// sealedUnion returns the union of the sealed epochs; ok=false when
// there are none. One sealed epoch is its own union, shared as it is.
// Concurrent first reads may both build it; they build the same union.
func (r *ring[V, S, C]) sealedUnion() (u C, ok bool) {
	switch len(r.sealed) {
	case 0:
		return u, false
	case 1:
		return r.sealed[0].c, true
	}
	if p := r.union.Load(); p != nil {
		return *p, true
	}
	agg := r.eng.NewAggregator()
	for _, s := range r.sealed {
		_ = agg.Add(s.c) // same engine: compatible by construction
	}
	u = agg.Result()
	r.union.Store(&u)
	r.c.sealedRebuilds.Add(1)
	return u, true
}

// Compact returns the whole window's compact. A ring with data in one
// place — the sealed union or the live epoch — returns that place's
// compact unmerged.
func (r *ring[V, S, C]) Compact() C {
	u, ok := r.sealedUnion()
	switch {
	case !ok:
		return r.live.Compact()
	case !r.dirty.Load():
		return u
	}
	agg := r.eng.NewAggregator()
	_ = agg.Add(u)
	_ = r.live.AddTo(agg)
	return agg.Result()
}

// AddTo folds the whole window into agg: the sealed union, then the
// live sketch in place.
func (r *ring[V, S, C]) AddTo(agg core.Aggregator[C]) error {
	u, ok := r.sealedUnion()
	if ok {
		if err := agg.Add(u); err != nil {
			return err
		}
	}
	if !ok || r.dirty.Load() {
		return r.live.AddTo(agg)
	}
	return nil
}

func (r *ring[V, S, C]) Query() S { return r.eng.QueryCompact(r.Compact()) }

// seal moves the ring to epoch to, which the window has just entered:
// the live epoch, unless it took no update, becomes a sealed compact
// and the live sketch is Reset in place (same pool attachment and
// writer slots; flat again for Θ); sealed epochs out of the window are
// dropped. It reports whether anything is left. The caller holds the ring exclusively with every writer slot flushed,
// so a sealed compact is its epoch's complete state.
func (r *ring[V, S, C]) seal(to int64, slots int) (keep bool) {
	if r.epoch == to {
		// Made after the rotation began: it already collects epoch to.
		return true
	}
	if r.dirty.Load() {
		r.sealed = append(r.sealed, sealedEpoch[C]{r.epoch, r.live.Compact()})
		r.live.Reset()
		r.dirty.Store(false)
		r.c.recycles.Add(1)
	}
	r.epoch = to
	n := 0
	for n < len(r.sealed) && r.sealed[n].epoch <= to-int64(slots) {
		n++
	}
	r.sealed = append(r.sealed[:0], r.sealed[n:]...)
	r.union.Store(nil)
	return len(r.sealed) > 0
}

// Reset empties the whole ring; same exclusivity as seal.
func (r *ring[V, S, C]) Reset() {
	r.live.Reset()
	r.dirty.Store(false)
	r.sealed = r.sealed[:0]
	r.union.Store(nil)
}

func (r *ring[V, S, C]) Close() { r.live.Close(); r.sealed = nil; r.union.Store(nil) }

// ringEngine wraps a family's engine so that every sketch it makes is a
// ring over the family's sketch: the per-key engine of a windowed
// table. Everything else is the family's.
type ringEngine[V, S, C any] struct {
	core.Engine[V, S, C]
	c *clock
}

// filterRingEngine is a ringEngine whose family has the writer-side
// filter (core.FilterEngine: Θ and HLL); the rings forward CalcHint.
type filterRingEngine[V, S, C any] struct {
	*ringEngine[V, S, C]
	core.FilterEngine[V]
}

func newRingEngine[V, S, C any](eng core.Engine[V, S, C], c *clock) core.Engine[V, S, C] {
	re := &ringEngine[V, S, C]{Engine: eng, c: c}
	if f, ok := eng.(core.FilterEngine[V]); ok {
		return filterRingEngine[V, S, C]{re, f}
	}
	return re
}

func (e *ringEngine[V, S, C]) NewSketch(pool *core.PropagatorPool) core.EngineSketch[V, S, C] {
	return e.NewSketchAffine(pool, 0)
}

// NewSketchAffine makes a ring collecting the window's current epoch.
// A table calls it under the key's shard lock, which a rotation's sweep
// takes only after the epoch bump: a ring made before the bump is swept
// to the new epoch, one made after starts in it.
func (e *ringEngine[V, S, C]) NewSketchAffine(pool *core.PropagatorPool, aff uint64) core.EngineSketch[V, S, C] {
	return newRing(e.Engine, e.Engine.NewSketchAffine(pool, aff), e.c)
}
