package table

import (
	"encoding/binary"
	"slices"
	"time"

	"github.com/fcds/fcds/internal/core"
)

// This file is the table's parallel read path: whole-table rollups,
// snapshot captures and streaming serialization fan the per-key work
// across a bounded worker set (core.FanOut) and merge the partial
// results. The structure is the same for all three:
//
//  1. collect — snapshot (key, entry) pointers shard by shard under
//     the shard read-lock only (no sketch is read under a shard lock);
//  2. fan out — workers claim runs of entries from a shared counter
//     and, under each entry's own liveness lock, fold them into
//     per-worker accumulators. A rollup hands its aggregator to the
//     live sketch (EngineSketch.AddTo), so a Θ key is merged from its
//     samples in place and no per-key compact is built; snapshots need
//     bytes, so they compact each key into a pair slice or a
//     serialization region;
//  3. merge — the per-worker partials combine: aggregators pairwise by
//     the family's compact merge, pair slices into the snapshot map,
//     regions into one output buffer grown exactly once.
//
// Consistency is unchanged from the serial walk: per key the state read
// is the usual r-relaxed point-in-time capture; across keys there is
// no atomicity (there never was — the serial walk released each shard
// lock between shards). Keys evicted between collect and read are
// skipped, exactly as a slightly earlier serial walk would have
// missed them.

// readDegree resolves the table's configured read fan-out.
func (t *Table[K, V, S, C]) readDegree() int {
	return core.ReadDegree(t.cfg.ReadParallelism)
}

// collectEntries snapshots (key, entry) pointers for every live key,
// one shard read-lock at a time. It takes no entry locks and performs
// no compaction, so a shard is blocked only for the pointer copy —
// eviction, lazy creation and writer-cache validation never stall
// behind a whole-table scan.
func (t *Table[K, V, S, C]) collectEntries() ([]K, []*entry[V, S, C]) {
	n := int(t.keys.Load())
	if n < 0 {
		n = 0
	}
	keys := make([]K, 0, n)
	ents := make([]*entry[V, S, C], 0, n)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			keys = append(keys, k)
			ents = append(ents, e)
		}
		sh.mu.RUnlock()
	}
	return keys, ents
}

// compactEntry captures one collected entry's compact outside all
// shard locks. The entry's liveness lock pins the sketch against a
// concurrent finalize; ok=false means the key was evicted since
// collection and has no compact to contribute.
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

// addEntry folds one collected entry's state into agg, outside all
// shard locks and under the entry's liveness lock, as compactEntry
// reads it. The sketch folds itself in (EngineSketch.AddTo: Θ reads its
// samples in place, with no per-key compact). A key evicted since
// collection contributes nothing. Engine-made sketches are compatible
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
// all-keys aggregate, by the family's mergeability. The per-key folds
// fan out across Config.ReadParallelism workers (GOMAXPROCS by
// default) with per-worker aggregators merged pairwise; every fold
// order of the same per-key states is a valid aggregate, so the
// parallel and serial results agree.
func (t *Table[K, V, S, C]) Rollup() C {
	start := time.Now()
	c := t.rollup(t.readDegree())
	t.observeDur(&t.rollupHist, start)
	return c
}

// rollup merges every live key's sketch into one compact, folding keys
// across `degree` workers with per-worker aggregators merged pairwise.
// degree <= 1 is the serial path (identical result by mergeability:
// every fold order of the same per-key states is a valid aggregate).
func (t *Table[K, V, S, C]) rollup(degree int) C {
	_, ents := t.collectEntries()
	if degree > len(ents) {
		degree = len(ents)
	}
	if degree <= 1 {
		agg := t.eng.NewAggregator()
		for _, e := range ents {
			t.addEntry(agg, e)
		}
		return agg.Result()
	}
	aggs := make([]core.Aggregator[C], degree)
	for w := range aggs {
		aggs[w] = t.eng.NewAggregator()
	}
	core.FanOut(degree, len(ents), func(w, i int) {
		t.addEntry(aggs[w], ents[i])
	})
	parts := make([]C, degree)
	for w := range aggs {
		parts[w] = aggs[w].Result()
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
	return parts[0]
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
// map insert stays serial (entries were collected once per key, so
// the partials are disjoint and insertion order is irrelevant).
func (t *Table[K, V, S, C]) snapshotInto(s *TableSnapshot[K, C], degree int) {
	keys, ents := t.collectEntries()
	if degree > len(ents) {
		degree = len(ents)
	}
	if degree <= 1 {
		for i, e := range ents {
			if c, ok := t.compactEntry(e); ok {
				s.entries[keys[i]] = c
			}
		}
		return
	}
	parts := make([][]kcPair[K, C], degree)
	core.FanOut(degree, len(ents), func(w, i int) {
		if c, ok := t.compactEntry(ents[i]); ok {
			parts[w] = append(parts[w], kcPair[K, C]{keys[i], c})
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

// appendSnapshot serializes the whole table into dst in the FCTB
// format without materializing a TableSnapshot — the streaming
// capture path. Workers marshal the entries they claim into
// per-worker regions in wire entry encoding; the region lengths are
// the size pre-pass, so dst grows exactly once and each region lands
// in its place with a single copy. The header's key count is patched
// last (keys evicted mid-capture are skipped, so it is not known up
// front). On error dst is returned unextended.
func (t *Table[K, V, S, C]) appendSnapshot(dst []byte, degree int) ([]byte, error) {
	keys, ents := t.collectEntries()
	if degree > len(ents) {
		degree = len(ents)
	}
	start := len(dst)
	var hdr [snapHeaderSize]byte
	copy(hdr[0:4], snapMagic)
	hdr[4] = snapVersion
	hdr[5] = t.eng.Kind()
	hdr[6] = keyTypeOf[K]()
	binary.LittleEndian.PutUint32(hdr[8:12], t.eng.Param())
	dst = append(dst, hdr[:]...)
	count := 0
	if degree <= 1 {
		for i, e := range ents {
			c, ok := t.compactEntry(e)
			if !ok {
				continue
			}
			blob, err := t.eng.MarshalCompact(c)
			if err != nil {
				return dst[:start], err
			}
			dst = appendKey(dst, keys[i])
			dst = binary.AppendUvarint(dst, uint64(len(blob)))
			dst = append(dst, blob...)
			count++
		}
	} else {
		regions := make([][]byte, degree)
		counts := make([]int, degree)
		errs := make([]error, degree)
		core.FanOut(degree, len(ents), func(w, i int) {
			if errs[w] != nil {
				return
			}
			c, ok := t.compactEntry(ents[i])
			if !ok {
				return
			}
			blob, err := t.eng.MarshalCompact(c)
			if err != nil {
				errs[w] = err
				return
			}
			buf := appendKey(regions[w], keys[i])
			buf = binary.AppendUvarint(buf, uint64(len(blob)))
			regions[w] = append(buf, blob...)
			counts[w]++
		})
		total := 0
		for w := range regions {
			if errs[w] != nil {
				return dst[:start], errs[w]
			}
			total += len(regions[w])
			count += counts[w]
		}
		dst = slices.Grow(dst, total)
		for _, r := range regions {
			dst = append(dst, r...)
		}
	}
	binary.LittleEndian.PutUint32(dst[start+12:start+16], uint32(count))
	return dst, nil
}

// HashKey returns the table's key-placement hash. Exported for
// composites that partition keys across workers consistently with
// shard placement (the windowed table's sealed-epoch merge).
func HashKey[K Key](k K) uint64 { return keyHash(k) }
