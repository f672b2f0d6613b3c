package table

import (
	"cmp"
	"math"
	"slices"
	"time"

	"github.com/fcds/fcds/internal/core"
)

// This file is the table's parallel read path: whole-table rollups,
// snapshot captures and streaming serialization. All three walk the
// table one way (walkShards): a bounded worker set (core.FanOut) claims
// whole shards, copies each claimed shard's (key, entry) pairs under
// the shard read lock only, and works on the pairs after the lock is
// released, each key under its entry's own liveness lock. No sketch is
// read under a shard lock. The per-worker partials then merge:
// snapshot pairs into the map, serialization regions into one output
// buffer behind the header, rollup aggregators pairwise.
//
// A rollup does not claim every shard, because not every key can
// change it. It offers the shards in ascending order of their floors
// (core.FloorSketch), and a worker skips unread every shard whose floor
// is at or above its aggregator's bound. Each key it reads hands the
// worker's aggregator its live state (EngineSketch.AddTo), so a Θ key
// is merged from its samples in place and no per-key compact is built.
// On a skewed Θ table most shards hold only keys whose samples are all
// above the union's Θ, and a rollup reads a few percent of the keys.
//
// Consistency is unchanged from a serial walk: per key the state read
// is the usual r-relaxed point-in-time capture; across keys there is
// no atomicity (there never was — the walk releases each shard lock
// before the next). Keys evicted between the copy and the read are
// skipped, exactly as a slightly earlier walk would have missed them.
// A skipped shard is read at the instant its floor was loaded: a
// sketch lowers the floor before the state that lowered it becomes
// readable.

// readDegree resolves the table's configured read fan-out.
func (t *Table[K, V, S, C]) readDegree() int {
	return core.ReadDegree(t.cfg.ReadParallelism)
}

// keyEntry is one (key, entry) pair a walk copied out of a shard.
type keyEntry[K Key, V, S, C any] struct {
	k K
	e *entry[V, S, C]
}

// walkShards is the table's one whole-table walk. Up to `degree`
// workers (core.FanOut; degree >= 1) claim the indices [0, n); claim(w,
// i) returns the shard that index i stands for, or nil to leave it
// unread. A claimed shard's (key, entry) pairs are copied into worker
// w's scratch, reused from shard to shard, under the shard read lock
// only, and visit(w, pairs) runs after the lock is released. So a
// shard is blocked only for the copy: eviction, lazy creation and
// writer-cache validation never stall behind a whole-table scan. visit
// takes a shard's pairs at once, not one call per key, so that its
// per-key loop is compiled together with the per-key work.
func (t *Table[K, V, S, C]) walkShards(degree, n int, claim func(w, i int) *shard[K, V, S, C], visit func(w int, pairs []keyEntry[K, V, S, C])) {
	scratch := make([][]keyEntry[K, V, S, C], degree)
	core.FanOut(degree, n, func(w, i int) {
		sh := claim(w, i)
		if sh == nil {
			return
		}
		pairs := scratch[w][:0]
		sh.mu.RLock()
		for k, e := range sh.m {
			pairs = append(pairs, keyEntry[K, V, S, C]{k, e})
		}
		sh.mu.RUnlock()
		visit(w, pairs)
		scratch[w] = pairs
	})
}

// walkAll is walkShards over every shard.
func (t *Table[K, V, S, C]) walkAll(degree int, visit func(w int, pairs []keyEntry[K, V, S, C])) {
	t.walkShards(degree, len(t.shards), func(_, i int) *shard[K, V, S, C] { return &t.shards[i] }, visit)
}

// compactEntry captures one walked entry's compact outside all shard
// locks. The entry's liveness lock pins the sketch against a
// concurrent finalize; ok=false means the key was evicted since its
// shard was copied and has no compact to contribute.
func (t *Table[K, V, S, C]) compactEntry(e *entry[V, S, C]) (C, bool) {
	e.mu.RLock()
	if e.dead {
		e.mu.RUnlock()
		var zero C
		return zero, false
	}
	c := e.sk.Compact()
	e.mu.RUnlock()
	return c, true
}

// addEntry folds one walked entry's state into agg, outside all shard
// locks and under the entry's liveness lock, as compactEntry reads it.
// The sketch folds itself in (EngineSketch.AddTo: Θ reads its samples
// in place, with no per-key compact). A key evicted since its shard
// was copied contributes nothing. Engine-made sketches are compatible
// with the engine's aggregator by construction, so the merge cannot
// fail.
func (t *Table[K, V, S, C]) addEntry(agg core.Aggregator[C], e *entry[V, S, C]) {
	e.mu.RLock()
	if !e.dead {
		_ = e.sk.AddTo(agg)
	}
	e.mu.RUnlock()
}

// Rollup merges every live key's sketch into one compact — the
// all-keys aggregate, by the family's mergeability. The per-shard folds
// fan out across Config.ReadParallelism workers (GOMAXPROCS by
// default) with per-worker aggregators merged pairwise, and skip the
// shards that cannot change them; every fold order of the same per-key
// states is a valid aggregate, so the parallel and serial results
// agree.
func (t *Table[K, V, S, C]) Rollup() C {
	start := time.Now()
	c := t.rollup(t.readDegree())
	t.observeDur(&t.rollupHist, start)
	return c
}

// rollup merges every live key's sketch into one compact, folding
// shards across `degree` workers with per-worker aggregators merged
// pairwise (degree 1 folds inline; every fold order of the same
// per-key states is a valid aggregate).
func (t *Table[K, V, S, C]) rollup(degree int) C {
	c, _ := t.rollupShards(degree)
	return c
}

// shardFold is one rollup worker: its aggregator, the aggregator's
// FloorAggregator half (nil: bound MaxUint64), and the number of shards
// it read.
type shardFold[C any] struct {
	agg  core.Aggregator[C]
	fa   core.FloorAggregator
	read int
}

func (t *Table[K, V, S, C]) newShardFold() *shardFold[C] {
	agg := t.eng.NewAggregator()
	fa, _ := agg.(core.FloorAggregator)
	return &shardFold[C]{agg: agg, fa: fa}
}

// bound is the worker's aggregator bound (core.FloorAggregator).
func (f *shardFold[C]) bound() uint64 {
	if f.fa == nil {
		return math.MaxUint64
	}
	return f.fa.Bound()
}

// rollupShards is rollup that also reports how many shards its workers
// read. The shards go in ascending order of their floors as they stood
// when the rollup began, so that each worker's bound falls early and
// most later shards are skipped; one whose floor was at or above a
// fresh aggregator's bound (a shard that never held a key) is not
// offered at all. The order is only a schedule: a worker re-reads each
// floor when the shard comes up and skips the shard unread if it is at
// or above the worker's bound. Then no key of the shard holds anything
// the aggregator can take, now or later (its bound only falls), so the
// skip leaves the result exactly as folding every key would
// (core.FloorSketch; for Θ, Union.bound).
func (t *Table[K, V, S, C]) rollupShards(degree int) (C, int) {
	type shardFloor struct {
		floor uint64
		i     int
	}
	first := t.newShardFold()
	start := first.bound()
	order := make([]shardFloor, 0, len(t.shards))
	for i := range t.shards {
		if f := t.shards[i].floor.Load(); f < start {
			order = append(order, shardFloor{f, i})
		}
	}
	slices.SortFunc(order, func(a, b shardFloor) int { return cmp.Compare(a.floor, b.floor) })
	degree = max(1, min(degree, len(order)))
	folds := make([]*shardFold[C], degree)
	folds[0] = first
	for w := 1; w < degree; w++ {
		folds[w] = t.newShardFold()
	}
	t.walkShards(degree, len(order), func(w, i int) *shard[K, V, S, C] {
		sh := &t.shards[order[i].i]
		if sh.floor.Load() >= folds[w].bound() {
			return nil
		}
		folds[w].read++
		return sh
	}, func(w int, pairs []keyEntry[K, V, S, C]) {
		for _, p := range pairs {
			t.addEntry(folds[w].agg, p.e)
		}
	})
	read := 0
	parts := make([]C, degree)
	for w, f := range folds {
		parts[w] = f.agg.Result()
		read += f.read
	}
	// Pairwise tree merge of the worker partials: parts[i] absorbs
	// parts[i+half] each round, halving the slice — log2(degree)
	// rounds, each round's merges independent.
	for len(parts) > 1 {
		half := (len(parts) + 1) / 2
		core.FanOut(degree, len(parts)-half, func(_, i int) {
			if m, err := t.eng.MergeCompact(parts[i], parts[i+half]); err == nil {
				parts[i] = m // err is impossible for same-engine compacts
			}
		})
		parts = parts[:half]
	}
	return parts[0], read
}

// kcPair is one captured (key, compact) pair in a worker's partial.
type kcPair[K Key, C any] struct {
	k K
	c C
}

// Snapshot captures every live key's compact sketch into a mergeable,
// serializable table snapshot. Per-key compaction fans out across
// Config.ReadParallelism workers (GOMAXPROCS by default).
func (t *Table[K, V, S, C]) Snapshot() *TableSnapshot[K, C] {
	start := time.Now()
	s := NewTableSnapshot[K](t.eng)
	t.snapshotInto(s, t.readDegree())
	t.observeDur(&t.snapHist, start)
	return s
}

// snapshotInto captures every live key's compact into s, compacting
// across `degree` workers. Workers fill per-worker pair slices; the
// map insert stays serial (the walk visits each key once, so the
// partials are disjoint and insertion order is irrelevant).
func (t *Table[K, V, S, C]) snapshotInto(s *TableSnapshot[K, C], degree int) {
	parts := make([][]kcPair[K, C], degree)
	t.walkAll(degree, func(w int, pairs []keyEntry[K, V, S, C]) {
		for _, p := range pairs {
			if c, ok := t.compactEntry(p.e); ok {
				parts[w] = append(parts[w], kcPair[K, C]{p.k, c})
			}
		}
	})
	for _, p := range parts {
		for _, e := range p {
			s.entries[e.k] = e.c
		}
	}
}

// SnapshotBinary serializes the whole table (SnapshotAppend into a
// fresh buffer).
func (t *Table[K, V, S, C]) SnapshotBinary() ([]byte, error) { return t.SnapshotAppend(nil) }

// SnapshotAppend captures the table and serializes it into dst,
// returning the extended slice — the streaming variant of
// SnapshotBinary for callers shipping periodic snapshots through a
// reusable buffer. The capture serializes directly into dst — no
// intermediate snapshot map — with per-key marshalling fanned out like
// Snapshot's.
func (t *Table[K, V, S, C]) SnapshotAppend(dst []byte) ([]byte, error) {
	start := time.Now()
	out, err := t.appendSnapshot(dst, t.readDegree())
	t.observeDur(&t.snapHist, start)
	return out, err
}

// snapRegion is one worker's share of a streamed snapshot: its
// encoded entries, their count, and the first marshal error.
type snapRegion struct {
	buf []byte
	n   int
	err error
}

// appendSnapshot serializes the whole table into dst in the FCTB
// format without materializing a TableSnapshot — the streaming
// capture path. Workers encode the keys they walk into per-worker
// regions (appendSnapEntry). Worker 0's region is dst itself, behind
// the header, so a serial capture into a reused buffer copies nothing;
// the other regions are appended after it, with dst grown once. The
// header's key count is known only then (keys evicted mid-capture are
// skipped), so the header is written again in place. On error dst is
// returned unextended.
func (t *Table[K, V, S, C]) appendSnapshot(dst []byte, degree int) ([]byte, error) {
	codec := core.CompactCodec[C](t.eng)
	regions := make([]snapRegion, degree)
	regions[0].buf = appendSnapHeader[K](dst, codec, 0)
	t.walkAll(degree, func(w int, pairs []keyEntry[K, V, S, C]) {
		r := &regions[w]
		for _, p := range pairs {
			if r.err != nil {
				return
			}
			if c, ok := t.compactEntry(p.e); ok {
				if r.buf, r.err = appendSnapEntry(r.buf, codec, p.k, c); r.err == nil {
					r.n++
				}
			}
		}
	})
	size, count := 0, 0
	for _, r := range regions {
		if r.err != nil {
			return dst, r.err
		}
		size += len(r.buf)
		count += r.n
	}
	out := slices.Grow(regions[0].buf, size-len(regions[0].buf))
	for _, r := range regions[1:] {
		out = append(out, r.buf...)
	}
	appendSnapHeader[K](out[:len(dst)], codec, count)
	return out, nil
}
