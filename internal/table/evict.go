package table

import "github.com/fcds/fcds/internal/core"

// maybeEvictCap enforces the per-shard key cap after inserts into
// shard si, evicting least-recently-updated keys first.
func (t *Table[K, V, S, C]) maybeEvictCap(si uint64) {
	if t.perShardCap == 0 {
		return
	}
	sh := &t.shards[si]
	sh.mu.RLock()
	over := len(sh.m) > t.perShardCap
	sh.mu.RUnlock()
	if !over {
		return
	}
	type victim struct {
		k K
		e *entry[V, S, C]
	}
	var victims []victim
	sh.mu.Lock()
	for len(sh.m) > t.perShardCap {
		// Sampled LRU (Redis-style): examine a bounded sample per
		// victim instead of the whole shard, so eviction under key
		// churn costs O(sample), not O(shard), per insert while the
		// shard's exclusive lock is held. Go's randomized map
		// iteration supplies the sample; shards at or below the
		// sample size degenerate to exact LRU.
		const evictionSample = 64
		var oldestK K
		var oldest *entry[V, S, C]
		var oldestT int64
		seen := 0
		for k, e := range sh.m {
			if ts := e.touched.Load(); oldest == nil || ts < oldestT {
				oldestK, oldest, oldestT = k, e, ts
			}
			if seen++; seen >= evictionSample {
				break
			}
		}
		delete(sh.m, oldestK)
		t.keys.Add(-1)
		victims = append(victims, victim{oldestK, oldest})
	}
	if len(victims) > 0 {
		// Invalidate writer caches before any victim is finalized: a
		// cached hit re-validates this stamp (under the entry lock before
		// it uses the sketch), so after the bump no writer can start
		// using a victim.
		t.epochs[si].Add(1)
	}
	sh.mu.Unlock()
	for _, v := range victims {
		t.finalize(v.k, v.e, true)
	}
	t.evictCap.Add(int64(len(victims)))
}

// EvictExpired evicts every key idle for longer than Config.TTL and
// returns the number evicted. A no-op when TTL is zero. Spilled
// snapshots go to OnEvict like cap evictions.
func (t *Table[K, V, S, C]) EvictExpired() int {
	if t.cfg.TTL <= 0 {
		return 0
	}
	cutoff := t.now() - t.cfg.TTL.Nanoseconds()
	type victim struct {
		k K
		e *entry[V, S, C]
	}
	var victims []victim
	for i := range t.shards {
		sh := &t.shards[i]
		removed := false
		sh.mu.Lock()
		for k, e := range sh.m {
			if e.touched.Load() < cutoff {
				delete(sh.m, k)
				t.keys.Add(-1)
				victims = append(victims, victim{k, e})
				removed = true
			}
		}
		if removed {
			t.epochs[i].Add(1)
		}
		sh.mu.Unlock()
	}
	for _, v := range victims {
		t.finalize(v.k, v.e, true)
	}
	t.evictTTL.Add(int64(len(victims)))
	return len(victims)
}

// finalize drains and closes an entry already removed from its shard
// map, spilling its compact snapshot to OnEvict when requested. The
// exclusive entry lock waits out in-flight updaters; holding it makes
// the evictor the sole user of every writer slot, so flushing them is
// within the framework's single-goroutine handle contract.
func (t *Table[K, V, S, C]) finalize(k K, e *entry[V, S, C], spill bool) {
	e.mu.Lock()
	for i := 0; i < t.cfg.Writers; i++ {
		e.sk.Flush(i)
	}
	var data []byte
	if spill && t.cfg.OnEvict != nil {
		if b, err := t.eng.MarshalCompact(t.compactOf(e)); err == nil {
			data = b
		}
	}
	e.sk.Close()
	e.dead = true
	e.mu.Unlock()
	t.evictions.Add(1)
	if spill && t.cfg.OnEvict != nil {
		t.cfg.OnEvict(k, data)
	}
}

// Drain flushes every writer slot of every live key so queries and
// snapshots reflect all prior updates. All writer handles must be
// quiescent, exactly as for Close.
func (t *Table[K, V, S, C]) Drain() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			e.mu.Lock()
			for w := 0; w < t.cfg.Writers; w++ {
				e.sk.Flush(w)
			}
			e.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
}

// Sweep hands every live key's sketch to visit with the key to itself:
// the key's shard lock and entry lock are both held exclusive, and
// every writer slot of the sketch has been flushed — the ownership
// finalize relies on. A key for which visit returns false leaves the
// table by eviction's steps (map removal, key count, dead, Close),
// without a spill and without counting as an eviction. It is the
// seam for a composite whose per-key sketch changes shape under its
// owner: a windowed table seals each key's epoch ring here.
//
// Both locks are exclusive because every reader holds one of them:
// writers and whole-table reads hold the entry lock shared, per-key
// Query and CompactKey without a hot-key policy only the shard read
// lock. So no read sees a sketch halfway through visit. Before it
// visits a shard's keys, Sweep bumps the shard's cache stamp inside the
// shard's critical section: a key visit removes is then covered by the
// removal argument in the package comment, and so is a writer's cached
// filter hint, which visit may have invalidated (see there).
func (t *Table[K, V, S, C]) Sweep(visit func(k K, sk core.EngineSketch[V, S, C]) (keep bool)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		t.epochs[i].Add(1)
		for k, e := range sh.m {
			e.mu.Lock()
			for w := 0; w < t.cfg.Writers; w++ {
				e.sk.Flush(w)
			}
			if !visit(k, e.sk) {
				delete(sh.m, k)
				t.keys.Add(-1)
				e.sk.Close()
				e.dead = true
			}
			e.mu.Unlock()
		}
		sh.mu.Unlock()
	}
}

// Close drains and closes every per-key sketch and, when owned, the
// propagator pool. All writer handles must be quiescent. Idempotent.
func (t *Table[K, V, S, C]) Close() {
	if t.closed.Swap(true) {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		m := sh.m
		sh.m = make(map[K]*entry[V, S, C])
		t.epochs[i].Add(1)
		sh.mu.Unlock()
		for _, e := range m {
			e.mu.Lock()
			for w := 0; w < t.cfg.Writers; w++ {
				e.sk.Flush(w)
			}
			e.sk.Close()
			e.dead = true
			e.mu.Unlock()
			t.keys.Add(-1)
		}
	}
	if t.ownPool {
		t.pool.Close()
	}
}
