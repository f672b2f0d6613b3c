package window

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/table"
)

// Table is a sliding-window keyed sketch table: the epoch ring of this
// package composed with the sharded keyed table, answering "per-key
// uniques/quantiles over the last Slots·Width" across millions of
// keys. Epoch state is a whole keyed table; rotation reuses the
// table's snapshot-spill path — the outgoing epoch is drained,
// captured as a mergeable TableSnapshot, and closed one further
// rotation later — so sealed epochs cost one compact per live key,
// not live sketches.
//
// The ring holds, youngest first: the active table (ingestion target),
// a draining table (the previous epoch — kept live for one epoch of
// grace so in-flight writers and their buffered tails land before the
// epoch seals), and Slots-2 sealed snapshots. Sealed snapshots are
// merged into one cached aggregate — built lazily by the first query
// of each epoch, so rotation stays cheap on ingest-heavy workloads —
// after which per-key window queries merge at most three per-key
// compacts.
//
// The per-epoch relaxation carries through per key: a window query for
// key k may miss up to r = 2·N·b of k's latest updates in each epoch
// the window spans. One contract matters at epoch boundaries: an
// epoch's width must exceed the duration of any single ingestion call,
// so that by the time a table two rotations old is drained and closed,
// no writer can still be inside it.
//
// Propagation affinity is inherited across rotations: the keyed table
// derives each sketch's pool-worker assignment from the key hash, so
// key k's sketch in the epoch-N table lands on the same propagator
// worker as k's sketch in every other epoch — rotation never
// reshuffles the worker an active key's merges run on.
type Table[K table.Key, V, S, C any] struct {
	ring
	eng  core.Engine[V, S, C]
	tcfg table.Config[K]

	// view is the atomically published window state; writers and
	// queries load it once per call for a consistent epoch set.
	view atomic.Pointer[tableView[K, V, S, C]]
}

// tableView is one immutable window state: the active and draining
// epoch tables plus the sealed snapshots and their cached aggregate.
type tableView[K table.Key, V, S, C any] struct {
	active   *table.Table[K, V, S, C]
	draining *table.Table[K, V, S, C]     // nil before the first rotation
	sealed   []*table.TableSnapshot[K, C] // oldest first, len <= Slots-2
	// retiring is the table sealed by the rotation that produced this
	// view: already captured in sealed, no longer written or queried
	// through this view, but kept open until the next rotation so
	// queries still holding the previous view (whose draining it was)
	// keep resolving its keys — even through a slow lazy aggregate
	// build. Closed when this view is replaced.
	retiring *table.Table[K, V, S, C]

	// agg is the cached merge of sealed, built at most once per epoch
	// by the first query that needs it (rotation stays O(active keys);
	// queries are orders of magnitude rarer than ingestion, so the
	// merge amortises where it is cheapest). nil result when sealed is
	// empty.
	aggOnce sync.Once
	agg     *table.TableSnapshot[K, C]
}

// aggregate returns the (lazily built) merge of the sealed snapshots.
func (v *tableView[K, V, S, C]) aggregate(w *Table[K, V, S, C]) *table.TableSnapshot[K, C] {
	v.aggOnce.Do(func() {
		v.agg = w.mergeSealed(v.sealed)
		w.sealedRebuilds.Add(1)
	})
	return v.agg
}

// NewTable builds a sliding-window keyed table whose per-key sketches
// come from the engine; Close it when done. The family configs' Engine
// methods produce the (tcfg, eng) pair:
//
//	tcfg, eng := table.ThetaConfig[string]{...}.Engine()
//	wt := window.NewTable(tcfg, eng, window.Config{Slots: 10, Width: time.Minute})
func NewTable[K table.Key, V, S, C any](tcfg table.Config[K], eng core.Engine[V, S, C], cfg Config) *Table[K, V, S, C] {
	w := &Table[K, V, S, C]{eng: eng, tcfg: tcfg}
	w.ring.init(cfg.withDefaults(), tcfg.Pool, w.Rotate)
	// Every epoch table shares the window's pool: R epochs never mean
	// R propagator pools.
	w.tcfg.Pool = w.pool
	w.view.Store(&tableView[K, V, S, C]{
		active: table.New(w.tcfg, eng),
	})
	return w
}

// Writer returns the i-th keyed ingestion handle (0 <= i <
// Config.Writers of the table config). Single-goroutine use.
func (w *Table[K, V, S, C]) Writer(i int) *TableWriter[K, V, S, C] {
	if i < 0 || i >= w.view.Load().active.NumWriters() {
		panic(fmt.Sprintf("window: writer index %d out of range [0,%d)",
			i, w.view.Load().active.NumWriters()))
	}
	return &TableWriter[K, V, S, C]{wt: w, id: i}
}

// RelaxationPerEpoch returns the per-key bound r = 2·N·b on updates a
// window query may miss from each epoch it spans.
func (w *Table[K, V, S, C]) RelaxationPerEpoch() int { return w.eng.Relaxation() }

// Keys returns the number of keys live in the active epoch.
func (w *Table[K, V, S, C]) Keys() int { return w.view.Load().active.Keys() }

// QueryWindow returns the key's query answer over the last Slots
// epochs; false when the key appears nowhere in the window. It merges
// at most three per-key compacts (sealed aggregate, draining epoch,
// active epoch; see CompactWindowKey); ingestion is never blocked.
func (w *Table[K, V, S, C]) QueryWindow(k K) (S, bool) {
	c, ok := w.CompactWindowKey(k)
	if !ok {
		var zero S
		return zero, false
	}
	return w.eng.QueryCompact(c), true
}

// CompactWindowKey returns a mergeable serializable compact of one
// key's whole-window state; false when the key is not in the window.
// Only a key found in two or three of (sealed aggregate, draining,
// active) costs a merge: a key found in one gets that compact as it
// is (mergeSealed's zero-merge rule), a miss allocates nothing.
func (w *Table[K, V, S, C]) CompactWindowKey(k K) (C, bool) {
	v := w.view.Load()
	var places [3]C
	found := places[:0]
	if sa := v.aggregate(w); sa != nil {
		if c, ok := sa.Get(k); ok {
			found = append(found, c)
		}
	}
	if v.draining != nil {
		if c, ok := v.draining.CompactKey(k); ok {
			found = append(found, c)
		}
	}
	if c, ok := v.active.CompactKey(k); ok {
		found = append(found, c)
	}
	if len(found) < 2 {
		return places[0], len(found) == 1
	}
	agg := w.eng.NewAggregator()
	for _, c := range found {
		_ = agg.Add(c)
	}
	return agg.Result(), true
}

// RollupWindow merges every key of every in-window epoch into one
// compact — the all-keys aggregate over the window.
func (w *Table[K, V, S, C]) RollupWindow() C {
	v := w.view.Load()
	agg := w.eng.NewAggregator()
	if sa := v.aggregate(w); sa != nil {
		sa.ForEach(func(_ K, c C) { _ = agg.Add(c) })
	}
	if v.draining != nil {
		_ = agg.Add(v.draining.Rollup())
	}
	_ = agg.Add(v.active.Rollup())
	return agg.Result()
}

// WindowSnapshot captures the whole window as one mergeable,
// serializable table snapshot (per-key compacts merged across the
// window's epochs) — the distributed-aggregation path for windows.
func (w *Table[K, V, S, C]) WindowSnapshot() (*table.TableSnapshot[K, C], error) {
	v := w.view.Load()
	snap := table.NewTableSnapshot[K](w.eng)
	if sa := v.aggregate(w); sa != nil {
		if err := snap.Merge(sa); err != nil {
			return nil, err
		}
	}
	if v.draining != nil {
		if err := snap.Merge(v.draining.Snapshot()); err != nil {
			return nil, err
		}
	}
	if err := snap.Merge(v.active.Snapshot()); err != nil {
		return nil, err
	}
	return snap, nil
}

// Rotate advances the window by one epoch: a fresh keyed table becomes
// the ingestion target, the previous active table enters its drain
// grace epoch, the table that finished its grace is drained, captured
// through the snapshot-spill path and closed, and the epoch that fell
// off the ring is dropped. Safe to call concurrently with ingestion
// and queries.
func (w *Table[K, V, S, C]) Rotate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.epoch.Add(1)
	w.rotations.Add(1)
	old := w.view.Load()
	nv := &tableView[K, V, S, C]{
		active:   table.New(w.tcfg, w.eng),
		draining: old.active,
	}
	// Seal the table that finished its grace epoch: no writer has
	// targeted it for a full epoch, so Drain (flush every slot of every
	// key) is within the handle contract, and the snapshot-spill path
	// captures its final per-key state. With Slots == 2 the sealed ring
	// has no capacity — the epoch expires straight out of grace, so the
	// O(keys) drain+snapshot walk is skipped entirely.
	nv.retiring = old.draining
	nv.sealed = append(nv.sealed, old.sealed...)
	if old.draining != nil && w.cfg.Slots > 2 {
		old.draining.Drain()
		nv.sealed = append(nv.sealed, old.draining.Snapshot())
	} else if old.draining != nil {
		// Slots == 2: the epoch expires straight out of grace, its data
		// leaving the window without ever entering the sealed ring.
		w.expired.Add(1)
	}
	// Expire epochs beyond the ring: active + draining + Slots-2 sealed.
	for len(nv.sealed) > w.cfg.Slots-2 {
		nv.sealed = nv.sealed[1:]
		w.expired.Add(1)
	}
	w.view.Store(nv)
	// The table sealed by the PREVIOUS rotation retires only now: no
	// live view references it anymore (a reader would have to hold one
	// view across two whole rotations to see a closed table).
	if old.retiring != nil {
		old.retiring.Close()
	}
}

// mergeSealed pre-merges the sealed snapshots into one aggregate.
// Keys are folded with one engine aggregator each rather than pairwise
// snapshot merges, and a key seen in a single epoch shares that
// epoch's compact outright — with churning key populations most keys
// take the zero-merge path, keeping rotation cost near one compact
// walk per sealed epoch.
//
// With ReadParallelism > 1 the fold fans out: keys are partitioned by
// their table-placement hash (every epoch's copy of a key lands in the
// same partition, so partitions fold independently) and the partition
// results combine into one snapshot. Per-key fold order is epoch order
// either way, so the parallel and serial aggregates agree family by
// family.
func (w *Table[K, V, S, C]) mergeSealed(sealed []*table.TableSnapshot[K, C]) *table.TableSnapshot[K, C] {
	switch len(sealed) {
	case 0:
		return nil
	case 1:
		return sealed[0] // snapshots are immutable once sealed
	}
	type pair struct {
		k K
		c C
	}
	foldPairs := func(pairs []pair, sizeHint int) map[K]C {
		type fold struct {
			c   C
			agg core.Aggregator[C]
		}
		folds := make(map[K]*fold, sizeHint)
		for _, p := range pairs {
			f := folds[p.k]
			if f == nil {
				folds[p.k] = &fold{c: p.c}
				continue
			}
			if f.agg == nil {
				f.agg = w.eng.NewAggregator()
				_ = f.agg.Add(f.c)
			}
			_ = f.agg.Add(p.c)
		}
		out := make(map[K]C, len(folds))
		for k, f := range folds {
			if f.agg != nil {
				out[k] = f.agg.Result()
			} else {
				out[k] = f.c
			}
		}
		return out
	}
	degree := core.ReadDegree(w.cfg.ReadParallelism)
	total := 0
	for _, s := range sealed {
		total += s.Len()
	}
	agg := table.NewTableSnapshot[K](w.eng)
	if degree <= 1 || total == 0 {
		pairs := make([]pair, 0, total)
		for _, s := range sealed {
			s.ForEach(func(k K, c C) { pairs = append(pairs, pair{k, c}) })
		}
		for k, c := range foldPairs(pairs, sealed[len(sealed)-1].Len()) {
			agg.Set(k, c)
		}
		return agg
	}
	// Partition pass (serial, one hash per pair — cheap next to the
	// per-key merges), then one worker folds each partition.
	parts := make([][]pair, degree)
	for _, s := range sealed {
		s.ForEach(func(k K, c C) {
			p := table.HashKey(k) % uint64(degree)
			parts[p] = append(parts[p], pair{k, c})
		})
	}
	results := make([]map[K]C, degree)
	core.FanOut(degree, degree, func(_, p int) {
		results[p] = foldPairs(parts[p], len(parts[p]))
	})
	for _, m := range results {
		for k, c := range m {
			agg.Set(k, c)
		}
	}
	return agg
}

// Drain flushes every writer slot of every key of the live epochs
// (active and draining). All writer handles must be quiescent. Drain
// holds the rotation lock for its whole walk, so it cannot race a
// Rotate into flushing a table that rotation is retiring and closing.
func (w *Table[K, V, S, C]) Drain() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	v := w.view.Load()
	if v.draining != nil {
		v.draining.Drain()
	}
	v.active.Drain()
}

// Close stops rotation, closes the live epoch tables and, when owned,
// the propagator pool. All writer handles must be quiescent.
// Idempotent.
func (w *Table[K, V, S, C]) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	tick := w.tick
	w.mu.Unlock()
	tick.halt()
	v := w.view.Load()
	if v.retiring != nil {
		v.retiring.Close()
	}
	if v.draining != nil {
		v.draining.Close()
	}
	v.active.Close()
	if w.ownPool {
		w.pool.Close()
	}
}

// TableWriter is a single-goroutine keyed window ingestion handle:
// handle i drives writer slot i of the active epoch's table,
// re-binding on the first call after a rotation. No boundary flush is
// needed — the outgoing table stays live for a grace epoch and is
// drained before sealing, so buffered tails land while their epoch is
// in the window.
type TableWriter[K table.Key, V, S, C any] struct {
	wt  *Table[K, V, S, C]
	id  int
	gen *table.Table[K, V, S, C]
	w   *table.Writer[K, V, S, C]
}

func (w *TableWriter[K, V, S, C]) rebind() *table.Writer[K, V, S, C] {
	if a := w.wt.view.Load().active; a != w.gen {
		w.gen = a
		w.w = a.Writer(w.id)
	}
	return w.w
}

// UpdateKeyed ingests one (key, value) pair into the current epoch.
func (w *TableWriter[K, V, S, C]) UpdateKeyed(k K, v V) { w.rebind().UpdateKeyed(k, v) }

// UpdateKeyedBatch ingests parallel (key, value) slices into the
// current epoch through the grouped fused batch path.
func (w *TableWriter[K, V, S, C]) UpdateKeyedBatch(keys []K, vals []V) {
	w.rebind().UpdateKeyedBatch(keys, vals)
}

// UpdateKeyedHashedBatch ingests values that are already item hashes
// in the engine's hash space.
func (w *TableWriter[K, V, S, C]) UpdateKeyedHashedBatch(keys []K, hs []V) {
	w.rebind().UpdateKeyedHashedBatch(keys, hs)
}

// FlushKey makes this writer's buffered current-epoch updates for the
// key visible to window queries.
func (w *TableWriter[K, V, S, C]) FlushKey(k K) { w.rebind().FlushKey(k) }
