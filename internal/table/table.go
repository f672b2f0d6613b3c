// Package table implements multi-tenant keyed sketch tables: a sharded
// map from keys to lightweight per-key concurrent sketches, all served
// by one shared core.PropagatorPool so the goroutine count is a
// function of GOMAXPROCS, not of the key count.
//
// The paper's framework composes naturally here — each key is an
// independent r-relaxed sketch with the full per-key guarantee
// r = 2·N·b (Theorem 1) — but instantiating the paper's design naively
// would dedicate one propagator goroutine per key, which collapses at
// millions of keys. Instead every per-key sketch attaches to the
// table's pool: writers hand off filled buffers exactly as in
// Algorithm 2, and a fixed set of pool workers drains whichever
// sketches have outstanding handoffs. Attachment is shard-affine: the
// key hash doubles as the sketch's pool-affinity key, so one worker
// always merges a given key's global sketch (it stays hot in that
// worker's cache) and a key recreated in a later epoch of a windowed
// table inherits the same home worker.
//
// Layout: keys hash into power-of-two shards. Each shard holds a
// lock-guarded map; sketches are created lazily on first update. The
// shard lock protects only map membership — never sketch state — so
// per-key queries are a brief read-lock plus the framework's wait-free
// atomic snapshot read, and batch ingestion touches each shard lock
// once per batch. On top of that, each Writer keeps a small
// direct-mapped key→entry cache so repeat keys skip the shard lock and
// map lookup entirely; coherence is one epoch stamp per shard, bumped
// whenever a key leaves the shard's map, so a cached entry is used only
// after re-validating the stamp under the entry's liveness lock — an
// evicted key can never be resurrected through a stale cache slot.
// Size-cap and TTL eviction spill evicted keys as compact serialized
// snapshots through the OnEvict callback, and whole tables serialize to
// a binary snapshot that merges with snapshots from other processes for
// distributed aggregation.
//
// A Θ key has three representations, chosen from its own update count
// (flat → concurrent → promoted), never by an option. While it is in
// the paper's eager phase (§5.3: fewer than 2/e² updates, processed
// sequentially because r would dominate so short a stream) it is flat:
// one mutex and one array of distinct hashes inside the engine's
// sketch adapter, not attached to the pool, every update visible on
// return. The update that reaches the eager limit builds the
// concurrent sketch from that array, and from then on the key is what
// the paragraphs above describe. A HotKeyPolicy can promote it further.
// For a table-owned pool, Keys() − Pool().Sketches() is the number of
// keys still flat. Measured on the benchmark's table_wide workload
// (47.8k live zipf keys, 47k of them never past the limit, K=256):
// ~510 B of heap per key (map slot, entry and sketch together) against
// ~1 850 B when every key was concurrent from its first update (~15
// heap objects). Quantiles and HLL keys are concurrent from creation.
//
// A HotKeyPolicy adds adaptive per-key configurations: keys whose
// ingest volume crosses a threshold are rebuilt through the engine's
// ScaleUp ladder (larger accuracy parameter and/or local buffers), with
// the pre-promotion state preserved as a compact and folded back into
// every query and snapshot via the family's compact-merge path.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
	"github.com/fcds/fcds/internal/metrics"
)

// Key is the set of supported table key types.
type Key interface {
	string | uint64
}

// shardSeed hashes keys to shards; distinct from sketch seeds so key
// placement does not correlate with Θ-space sampling.
const shardSeed uint64 = 0x7ab1e5eed

// HotKeyPolicy enables adaptive per-key configurations: the table
// counts each key's ingested updates and, when a key's count crosses
// HotThreshold, rebuilds that key's sketch through the engine's
// ScaleUp ladder — snapshotting the current state as a compact and
// creating a sketch with the scaled configuration, seeded from that
// compact via the family's compact-merge path (same pool worker:
// affinity is key-derived), so the live sketch keeps the key's full
// history and, for Θ, its earned pre-filtering strength.
//
// What scales is family-dependent (see core.ScalableEngine): Θ doubles
// the local buffer size b (handoffs halve); quantiles double the
// accuracy parameter k and b; HLL doubles only b. The scaled engines
// skip the eager phase — a key only promotes after a volume threshold,
// far past the small-stream regime. Growing b doubles that key's
// relaxation bound r = 2·N·b per promotion — hot keys trade staleness
// headroom (still bounded, still per key) for fewer handoffs. Compacts
// leaving the table are normalized back to the base parameter, so
// snapshot wire compatibility and cross-table merges are unaffected.
type HotKeyPolicy struct {
	// HotThreshold is the per-key ingested-update count that triggers
	// a promotion; the counter resets on promotion, so a key that
	// stays hot climbs one ladder step per threshold crossing. <= 0
	// disables the policy.
	HotThreshold int64
	// MaxPromotions caps how many times one key may be promoted
	// (ladder depth). 0 means 3. The ladder also ends where the
	// engine's ScaleUp reports its cap.
	MaxPromotions int
	// CoolAfter, when > 0, enables demotion: DemoteCooled rebuilds
	// every promoted key that has been idle for at least CoolAfter one
	// ladder step down (seeded from its own compact, same pool worker
	// — the exact reverse of the promotion rebuild), so cooled keys
	// shed their enlarged buffers and their doubled relaxation bound
	// instead of keeping them until eviction. A key that cooled
	// through several levels sheds one per DemoteCooled pass.
	CoolAfter time.Duration
}

// Config carries the sketch-independent table configuration. The zero
// value is usable: 1 writer, 256 shards, GOMAXPROCS propagators, no
// eviction.
type Config[K Key] struct {
	// Writers is N, the number of table writer handles; every per-key
	// sketch is created with the same N slots, so the per-key
	// relaxation is r = 2·N·b. 0 means 1.
	Writers int
	// Shards is the number of key shards (a power of two; default 256).
	// More shards mean less lock contention on key creation/eviction.
	Shards int
	// Propagators sizes the table's owned propagator pool (default
	// GOMAXPROCS). Ignored when Pool is set.
	Propagators int
	// Pool, when non-nil, is an external propagation executor shared
	// with other tables or sketches; the caller closes it after the
	// table. Nil gives the table its own pool.
	Pool *core.PropagatorPool
	// MaxKeys caps the number of live keys (0 = unlimited). The cap is
	// enforced per shard (MaxKeys/Shards, rounded up), evicting the
	// least-recently-updated keys of the overflowing shard.
	MaxKeys int
	// TTL, when > 0, marks keys idle for longer than TTL as evictable
	// by EvictExpired.
	TTL time.Duration
	// OnEvict, when non-nil, receives each evicted key with its final
	// state as a compact serialized snapshot (the same bytes a table
	// snapshot holds per key), after the key's buffers are drained.
	// snapshot is nil in the exceptional case that serialization
	// failed; consumers persisting spills must handle it. Called
	// outside all table locks; implementations may be slow but must
	// not call back into the evicting table's write path.
	OnEvict func(key K, snapshot []byte)
	// HotKeys, when non-nil with HotThreshold > 0, promotes hot keys
	// to scaled-up per-key sketches. Ignored when the table's engine
	// does not implement core.ScalableEngine.
	HotKeys *HotKeyPolicy
	// ReadParallelism bounds the worker fan-out of the parallel read
	// paths (Rollup, Snapshot, SnapshotAppend): 0 means GOMAXPROCS at
	// call time, 1 forces the serial walk, higher values are clamped
	// to the live key count per call. Ingestion is never affected.
	ReadParallelism int
}

func (c Config[K]) withDefaults() Config[K] {
	if c.Writers == 0 {
		c.Writers = 1
	}
	if c.Shards == 0 {
		c.Shards = 256
	}
	if c.Shards&(c.Shards-1) != 0 {
		panic(fmt.Sprintf("table: Shards must be a power of two, got %d", c.Shards))
	}
	return c
}

// entry is one live key. mu serialises sketch liveness and identity:
// updaters hold it shared for the duration of their sketch calls,
// evictors hold it exclusive while draining and closing the sketch,
// and hot-key promotion holds it exclusive while swapping sk for a
// scaled-up rebuild. touched is the UnixNano of the last update, for
// TTL/LRU eviction; hits counts ingested updates since creation or the
// last promotion.
type entry[V, S, C any] struct {
	mu      sync.RWMutex
	sk      core.EngineSketch[V, S, C]
	touched atomic.Int64
	// dead is set (under mu exclusive) once finalize or Close has
	// closed sk; a deferred promotion that lost the race to an
	// eviction must not rebuild the closed sketch (the rebuilt sketch
	// would be unreachable and never closed — a pool-attachment leak).
	dead bool

	// Hot-key promotion state. level counts promotions (atomic: read
	// on the unlocked counting path); eng is the engine that built sk
	// (the ladder engine after promotion; guarded by mu). Promotion
	// rebuilds sk seeded from its own compact, so the live sketch
	// always carries the key's full history.
	hits  atomic.Int64
	level atomic.Int32
	eng   core.Engine[V, S, C]
}

// shard is one power-of-two slice of the key space. mu protects m
// (membership only, never sketch state). epoch counts map removals —
// the coherence stamp for per-writer entry caches: any eviction,
// expiry or close that deletes a key bumps it, invalidating every
// cached entry of this shard at its next validation.
type shard[K Key, V, S, C any] struct {
	mu    sync.RWMutex
	m     map[K]*entry[V, S, C]
	epoch atomic.Uint64
}

// Table is the generic keyed sketch table; the exported ThetaTable /
// QuantilesTable / HLLTable wrap it (through SketchTable) with
// concrete sketch engines.
type Table[K Key, V, S, C any] struct {
	cfg  Config[K]
	eng  core.Engine[V, S, C]
	pool *core.PropagatorPool
	// ownPool is true when the table created (and must close) its pool.
	ownPool bool

	shards []shard[K, V, S, C]
	mask   uint64
	// perShardCap is ceil(MaxKeys/Shards), 0 when uncapped.
	perShardCap int

	// hot is the active hot-key policy (nil when disabled or the
	// engine is not scalable); ladder[i] is the engine for promotion
	// level i+1, built once at construction, and scal is the base
	// engine as a ScalableEngine — the demotion target for level 1.
	hot    *HotKeyPolicy
	ladder []core.ScalableEngine[V, S, C]
	scal   core.ScalableEngine[V, S, C]

	keys       atomic.Int64
	evictions  atomic.Int64
	evictCap   atomic.Int64
	evictTTL   atomic.Int64
	promotions atomic.Int64
	demotions  atomic.Int64
	closed     atomic.Bool

	// wstats holds one padded cell pair per writer handle: each writer
	// folds its entry-cache hit/miss deltas into its own cell (one
	// uncontended atomic add per op or batch), and Stats sums them —
	// scrape-safe aggregation without sharing a contended cell across
	// writers.
	wstats []writerCells

	// rollupHist/snapHist, when set by RegisterMetrics, receive the
	// wall duration of every rollup / snapshot capture (nil until
	// metrics are registered — reads stay observation-free).
	rollupHist atomic.Pointer[metrics.Histogram]
	snapHist   atomic.Pointer[metrics.Histogram]

	// now is the eviction clock (UnixNano); tests override it.
	now func() int64
}

func newTable[K Key, V, S, C any](cfg Config[K], eng core.Engine[V, S, C]) *Table[K, V, S, C] {
	cfg = cfg.withDefaults()
	t := &Table[K, V, S, C]{
		cfg:    cfg,
		eng:    eng,
		pool:   cfg.Pool,
		shards: make([]shard[K, V, S, C], cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
		now:    func() int64 { return time.Now().UnixNano() },
	}
	if t.pool == nil {
		t.pool = core.NewPropagatorPool(cfg.Propagators)
		t.ownPool = true
	}
	if cfg.MaxKeys > 0 {
		t.perShardCap = (cfg.MaxKeys + cfg.Shards - 1) / cfg.Shards
	}
	for i := range t.shards {
		t.shards[i].m = make(map[K]*entry[V, S, C])
	}
	t.wstats = make([]writerCells, cfg.Writers)
	if cfg.HotKeys != nil && cfg.HotKeys.HotThreshold > 0 {
		if se, ok := any(eng).(core.ScalableEngine[V, S, C]); ok {
			t.scal = se
			depth := cfg.HotKeys.MaxPromotions
			if depth <= 0 {
				depth = 3
			}
			for i := 0; i < depth; i++ {
				next, ok := se.ScaleUp()
				if !ok {
					break
				}
				// Ladder engines must be scalable themselves: the
				// promotion rebuild seeds the new sketch through them.
				nse, ok := any(next).(core.ScalableEngine[V, S, C])
				if !ok {
					break
				}
				t.ladder = append(t.ladder, nse)
				se = nse
			}
			if len(t.ladder) > 0 {
				t.hot = cfg.HotKeys
			}
		}
	}
	return t
}

// keyHash returns the shard-placement hash of a key; the low bits pick
// the shard, the whole word indexes the writer entry caches and pins
// the key's sketch to a pool worker. The any-boxing compiles to a type
// switch on the instantiation's shape and does not escape.
func keyHash[K Key](k K) uint64 {
	switch v := any(k).(type) {
	case string:
		h, _ := hash.Sum128String(v, shardSeed)
		return h
	case uint64:
		h, _ := hash.SumUint64(v, shardSeed)
		return h
	default:
		panic("table: unsupported key type")
	}
}

// affinityKeyOf maps a key hash to a nonzero pool-affinity key (the
// pool reserves 0 for "no preference").
func affinityKeyOf(h uint64) uint64 {
	if h == 0 {
		return shardSeed
	}
	return h
}

// writerCells is one writer's table-side stat cells, padded to 128
// bytes so adjacent writers' cells never share a cache line.
type writerCells struct {
	hits   atomic.Int64
	misses atomic.Int64
	_      [112]byte
}

// Stats is a point-in-time snapshot of the table's operational
// counters, the per-subsystem attribution exported through
// SketchTable.RegisterMetrics.
type Stats struct {
	// Keys is the number of live keys.
	Keys int
	// Evictions counts evicted keys, total and by cause.
	Evictions    int64
	EvictionsCap int64 // size-cap (LRU) evictions
	EvictionsTTL int64 // idle-TTL evictions
	// Promotions and Demotions count hot-key ladder moves.
	Promotions int64
	Demotions  int64
	// CacheHits counts key resolutions served by writer entry caches;
	// ShardLookups counts the misses resolved through shard maps.
	CacheHits    int64
	ShardLookups int64
}

// Pool returns the table's propagation executor.
func (t *Table[K, V, S, C]) Pool() *core.PropagatorPool { return t.pool }

// Keys returns the number of live keys.
func (t *Table[K, V, S, C]) Keys() int { return int(t.keys.Load()) }

// Evictions returns the number of keys evicted so far.
func (t *Table[K, V, S, C]) Evictions() int64 { return t.evictions.Load() }

// Promotions returns the number of hot-key promotions performed.
func (t *Table[K, V, S, C]) Promotions() int64 { return t.promotions.Load() }

// Demotions returns the number of hot-key demotions performed.
func (t *Table[K, V, S, C]) Demotions() int64 { return t.demotions.Load() }

// Stats returns a snapshot of the table's operational counters.
func (t *Table[K, V, S, C]) Stats() Stats {
	s := Stats{
		Keys:         t.Keys(),
		Evictions:    t.evictions.Load(),
		EvictionsCap: t.evictCap.Load(),
		EvictionsTTL: t.evictTTL.Load(),
		Promotions:   t.promotions.Load(),
		Demotions:    t.demotions.Load(),
	}
	for i := range t.wstats {
		s.CacheHits += t.wstats[i].hits.Load()
		s.ShardLookups += t.wstats[i].misses.Load()
	}
	return s
}

// NumWriters returns the configured writer-handle count N.
func (t *Table[K, V, S, C]) NumWriters() int { return t.cfg.Writers }

// writerCacheSize is the per-writer direct-mapped entry-cache size (a
// power of two). 512 slots cover the hot set of a zipfian key draw at
// a few KB per writer.
const writerCacheSize = 512

// Writer returns the i-th writer handle (0 <= i < Config.Writers).
// Each handle must be used by at most one goroutine at a time.
func (t *Table[K, V, S, C]) Writer(i int) *Writer[K, V, S, C] {
	if i < 0 || i >= t.cfg.Writers {
		panic(fmt.Sprintf("table: writer index %d out of range [0,%d)", i, t.cfg.Writers))
	}
	return &Writer[K, V, S, C]{
		t:           t,
		id:          i,
		gidx:        make(map[K]int),
		shardGroups: make([][]int, t.cfg.Shards),
		ckeys:       make([]K, writerCacheSize),
		centries:    make([]*entry[V, S, C], writerCacheSize),
		chashes:     make([]uint64, writerCacheSize),
		cepochs:     make([]uint64, writerCacheSize),
	}
}

// query returns the wait-free per-key snapshot. The shard read-lock
// guards only map membership; the snapshot itself is the framework's
// single atomic read and is never blocked by ingestion or propagation.
// With a hot-key policy the entry lock is additionally held shared, to
// pin the sketch identity against a racing promotion — a promoted
// key's live sketch carries its full history (the rebuild is seeded
// from the old compact), so the query is still one snapshot read.
func (t *Table[K, V, S, C]) query(k K) (S, bool) {
	sh := &t.shards[keyHash(k)&t.mask]
	sh.mu.RLock()
	e := sh.m[k]
	if e == nil {
		sh.mu.RUnlock()
		var zero S
		return zero, false
	}
	if t.hot == nil {
		s := e.sk.Query()
		sh.mu.RUnlock()
		return s, true
	}
	e.mu.RLock()
	sh.mu.RUnlock()
	s := e.sk.Query()
	e.mu.RUnlock()
	return s, true
}

// compactOf returns the entry's full-history compact, normalized to
// the table's base parameter when the entry was promoted to a
// different one — every compact leaving the table (per-key compacts,
// table snapshots, rollups, eviction spills) is base-compatible
// regardless of promotion level, keeping the FCTB wire format and
// cross-table merges unchanged. Caller must hold e.mu (shared or
// exclusive).
func (t *Table[K, V, S, C]) compactOf(e *entry[V, S, C]) C {
	c := e.sk.Compact()
	if e.eng.Param() == t.eng.Param() {
		return c
	}
	norm := t.eng.NewAggregator()
	_ = norm.Add(c)
	return norm.Result()
}

// compactKey returns a serializable compact snapshot of one live key.
func (t *Table[K, V, S, C]) compactKey(k K) (C, bool) {
	sh := &t.shards[keyHash(k)&t.mask]
	sh.mu.RLock()
	e := sh.m[k]
	if e == nil {
		sh.mu.RUnlock()
		var zero C
		return zero, false
	}
	if t.hot == nil {
		c := e.sk.Compact()
		sh.mu.RUnlock()
		return c, true
	}
	e.mu.RLock()
	sh.mu.RUnlock()
	c := t.compactOf(e)
	e.mu.RUnlock()
	return c, true
}

// forEachCompact visits a compact snapshot of every live key. Entry
// pointers are collected shard by shard under the shard read-lock and
// compacted outside it under each entry's own liveness lock, so
// eviction, lazy creation and writer-cache validation on a shard never
// stall behind a whole-shard compaction scan; a key evicted between
// collection and compaction is skipped, exactly as a slightly earlier
// walk would have missed it. Consistency is per key, not across keys —
// the usual r-relaxed guarantee.
func (t *Table[K, V, S, C]) forEachCompact(fn func(k K, c C)) {
	keys, ents := t.collectEntries()
	for i, e := range ents {
		if c, ok := t.compactEntry(e); ok {
			fn(keys[i], c)
		}
	}
}

// getOrCreate resolves the entry for a key, creating it lazily, and
// returns it with its liveness lock held shared (the caller must
// release it after the sketch call) plus the shard epoch observed
// while the entry was provably in the map — the stamp a writer cache
// slot needs. Lock coupling with the shard lock guarantees an evictor
// cannot close the sketch in between.
func (t *Table[K, V, S, C]) getOrCreate(sh *shard[K, V, S, C], k K, h uint64) (*entry[V, S, C], uint64) {
	sh.mu.RLock()
	if e := sh.m[k]; e != nil {
		ep := sh.epoch.Load()
		e.mu.RLock()
		sh.mu.RUnlock()
		return e, ep
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	e := sh.m[k]
	if e == nil {
		e = t.newEntry(h)
		sh.m[k] = e
		t.keys.Add(1)
	}
	ep := sh.epoch.Load()
	e.mu.RLock()
	sh.mu.Unlock()
	return e, ep
}

// newEntry creates a live entry whose sketch is pinned to the pool
// worker the key hash maps to. touched starts at now, not zero — a
// zero timestamp would make a just-created key the LRU victim and
// invert the eviction order.
func (t *Table[K, V, S, C]) newEntry(h uint64) *entry[V, S, C] {
	e := &entry[V, S, C]{
		sk:  t.eng.NewSketchAffine(t.pool, affinityKeyOf(h)),
		eng: t.eng,
	}
	e.touched.Store(t.now())
	return e
}

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
		// cached hit re-validates this stamp under the entry lock, so
		// after the bump no writer can start using a victim.
		sh.epoch.Add(1)
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
			sh.epoch.Add(1)
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

// promote rebuilds a hot entry's sketch through the next ladder
// engine: flush every slot (exclusive access makes this safe, as in
// finalize), capture the full history as a compact, close the old
// sketch and start the scaled one — seeded from that compact, on the
// same pool worker — in its place. Callers must hold no table or
// entry locks; an entry already evicted (dead) is left untouched.
func (t *Table[K, V, S, C]) promote(e *entry[V, S, C], h uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lvl := int(e.level.Load())
	if e.dead || lvl >= len(t.ladder) || e.hits.Load() < t.hot.HotThreshold {
		return
	}
	for i := 0; i < t.cfg.Writers; i++ {
		e.sk.Flush(i)
	}
	c := e.sk.Compact()
	e.sk.Close()
	next := t.ladder[lvl]
	e.sk = next.NewSketchSeeded(t.pool, affinityKeyOf(h), c)
	e.eng = next
	e.level.Store(int32(lvl + 1))
	e.hits.Store(0)
	t.promotions.Add(1)
}

// demote rebuilds a promoted entry one ladder step down, seeded from
// its own compact (normalized to the target engine's parameter) on the
// same pool worker — the exact inverse of promote. The entry must
// still be idle past cutoff once the exclusive lock is held: an update
// that raced the scan wins and the demotion is skipped. Callers must
// hold no table or entry locks.
func (t *Table[K, V, S, C]) demote(e *entry[V, S, C], h uint64, cutoff int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	lvl := int(e.level.Load())
	if e.dead || lvl == 0 || e.touched.Load() >= cutoff {
		return false
	}
	for i := 0; i < t.cfg.Writers; i++ {
		e.sk.Flush(i)
	}
	target := t.scal
	if lvl > 1 {
		target = t.ladder[lvl-2]
	}
	c := e.sk.Compact()
	if e.eng.Param() != target.Param() {
		norm := target.NewAggregator()
		_ = norm.Add(c)
		c = norm.Result()
	}
	e.sk.Close()
	e.sk = target.NewSketchSeeded(t.pool, affinityKeyOf(h), c)
	e.eng = target
	e.level.Store(int32(lvl - 1))
	e.hits.Store(0)
	t.demotions.Add(1)
	return true
}

// DemoteCooled rebuilds every promoted key that has been idle for at
// least HotKeyPolicy.CoolAfter one ladder step down, shedding the
// enlarged local buffers (and the doubled relaxation bound r) that a
// past hot phase earned. Returns the number of keys demoted. A no-op
// when no hot-key policy is active or CoolAfter is zero. Like
// EvictExpired, call it periodically; each pass sheds at most one
// level per key.
func (t *Table[K, V, S, C]) DemoteCooled() int {
	if t.hot == nil || t.hot.CoolAfter <= 0 {
		return 0
	}
	cutoff := t.now() - t.hot.CoolAfter.Nanoseconds()
	type cand struct {
		e *entry[V, S, C]
		h uint64
	}
	var cands []cand
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			if e.level.Load() > 0 && e.touched.Load() < cutoff {
				cands = append(cands, cand{e, keyHash(k)})
			}
		}
		sh.mu.RUnlock()
	}
	n := 0
	for _, c := range cands {
		if t.demote(c.e, c.h, cutoff) {
			n++
		}
	}
	return n
}

// noteHot credits n ingested updates to the entry and reports whether
// the caller should promote it (the counter just crossed the
// threshold and the ladder has a next step). Safe without locks.
func (t *Table[K, V, S, C]) noteHot(e *entry[V, S, C], n int) bool {
	if t.hot == nil {
		return false
	}
	after := e.hits.Add(int64(n))
	return after >= t.hot.HotThreshold &&
		after-int64(n) < t.hot.HotThreshold &&
		int(e.level.Load()) < len(t.ladder)
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
		sh.epoch.Add(1)
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

// Writer is a single-goroutine keyed ingestion handle: table writer i
// drives slot i of every per-key sketch it touches. All grouping
// scratch is retained across calls, so steady-state keyed batches
// allocate only when a batch introduces new distinct keys or values
// outgrow their run buffers.
//
// Each writer owns a direct-mapped key→entry cache: a repeat key
// resolves its entry from the cache and re-validates the shard's
// eviction epoch under the entry's liveness lock, skipping the shard
// read-lock and map lookup of the slow path. A slot whose stamp went
// stale (any key left that shard's map since the slot was filled) is
// dropped and resolved through the shard map again, so an evicted
// key's entry is never written through the cache.
type Writer[K Key, V, S, C any] struct {
	t  *Table[K, V, S, C]
	id int

	// gidx maps a batch's distinct keys to group indices; gkeys/ghash/
	// gvals are the parallel key, key-hash and value-run storage, and
	// entries the resolved per-group entries. shardGroups buckets
	// group indices by shard (len = Shards) and shardOrder lists
	// touched shards.
	gidx        map[K]int
	gkeys       []K
	ghash       []uint64
	gvals       [][]V
	entries     []*entry[V, S, C]
	gepochs     []uint64
	shardGroups [][]int
	shardOrder  []int
	missing     []int
	creating    []int

	// The direct-mapped entry cache, indexed by key hash. A slot is
	// (key, hash, entry, shard-epoch stamp); centries[j] == nil means
	// empty. chits/cmisses count lookups (single-goroutine, like the
	// writer itself).
	ckeys    []K
	centries []*entry[V, S, C]
	chashes  []uint64
	cepochs  []uint64
	chits    int64
	cmisses  int64

	// hotPending collects entries whose promotion threshold a batch
	// crossed; promotions run after every entry lock of the batch is
	// released (promotion takes the entry lock exclusively).
	hotPending []hotRef[V, S, C]
}

// hotRef is one deferred hot-key promotion.
type hotRef[V, S, C any] struct {
	e *entry[V, S, C]
	h uint64
}

// cacheLookup resolves a key through the writer's entry cache. On a
// hit it returns the entry with its liveness lock held shared and the
// shard epoch re-validated — the entry is live and in the map. On any
// miss (empty slot, different key, stale stamp) it returns nil; stale
// slots are cleared. Callers must hold no other locks (the single-key
// update path).
func (w *Writer[K, V, S, C]) cacheLookup(k K, h uint64, sh *shard[K, V, S, C]) *entry[V, S, C] {
	j := h & (writerCacheSize - 1)
	e := w.centries[j]
	if e == nil || w.chashes[j] != h || w.ckeys[j] != k {
		w.cmisses++
		return nil
	}
	e.mu.RLock()
	if sh.epoch.Load() != w.cepochs[j] {
		// A key left this shard since the slot was filled: the cached
		// entry may be the one evicted. Drop the slot and resolve
		// through the map.
		e.mu.RUnlock()
		w.centries[j] = nil
		w.cmisses++
		return nil
	}
	w.chits++
	return e
}

// cacheProbe is the lock-free half of cacheLookup, used by the batch
// path: it returns the cached entry candidate and its stamp without
// acquiring any lock; the batch's apply round re-validates the stamp
// under the entry lock just before use.
func (w *Writer[K, V, S, C]) cacheProbe(k K, h uint64) (*entry[V, S, C], uint64) {
	j := h & (writerCacheSize - 1)
	e := w.centries[j]
	if e == nil || w.chashes[j] != h || w.ckeys[j] != k {
		w.cmisses++
		return nil, 0
	}
	w.chits++
	return e, w.cepochs[j]
}

// CacheStats returns the writer's entry-cache hit/miss counters. Like
// every Writer method, single-goroutine use.
func (w *Writer[K, V, S, C]) CacheStats() (hits, misses int64) { return w.chits, w.cmisses }

// cacheStore fills the cache slot for a key resolved through the slow
// path. epoch must have been loaded while the entry was provably in
// the shard map (under the shard lock).
func (w *Writer[K, V, S, C]) cacheStore(k K, h uint64, e *entry[V, S, C], epoch uint64) {
	j := h & (writerCacheSize - 1)
	w.ckeys[j] = k
	w.chashes[j] = h
	w.centries[j] = e
	w.cepochs[j] = epoch
}

// UpdateKeyed processes one (key, value) update.
func (w *Writer[K, V, S, C]) UpdateKeyed(k K, v V) {
	t := w.t
	h := keyHash(k)
	si := h & t.mask
	sh := &t.shards[si]
	e := w.cacheLookup(k, h, sh)
	created := e == nil
	if created {
		var ep uint64
		e, ep = t.getOrCreate(sh, k, h)
		w.cacheStore(k, h, e, ep)
		t.wstats[w.id].misses.Add(1)
	} else {
		t.wstats[w.id].hits.Add(1)
	}
	e.sk.Update(w.id, v)
	e.touched.Store(t.now())
	hot := t.noteHot(e, 1)
	e.mu.RUnlock()
	if hot {
		t.promote(e, h)
	}
	if created {
		t.maybeEvictCap(si)
	}
}

// UpdateKeyedBatch processes parallel slices of keys and values: values
// are grouped by key, the distinct keys grouped by shard so each shard
// lock is taken once, and each key's run enters its sketch through the
// fused hash+pre-filter batch path. Slices must have equal length.
func (w *Writer[K, V, S, C]) UpdateKeyedBatch(keys []K, vals []V) {
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("table: UpdateKeyedBatch length mismatch: %d keys, %d values", len(keys), len(vals)))
	}
	if len(keys) == 0 {
		return
	}
	// Pass 1: group values by key and distinct keys by shard.
	for i, k := range keys {
		gi := w.group(k)
		w.gvals[gi] = append(w.gvals[gi], vals[i])
	}
	w.apply(false)
}

// UpdateKeyedHashedBatch is UpdateKeyedBatch for values that are
// already item hashes in the sketch family's hash space; each key's run
// enters its sketch through the pre-hashed batch path. The keyed
// string-ingestion paths hash in their grouping pass and land here.
func (w *Writer[K, V, S, C]) UpdateKeyedHashedBatch(keys []K, hs []V) {
	if len(keys) != len(hs) {
		panic(fmt.Sprintf("table: UpdateKeyedHashedBatch length mismatch: %d keys, %d hashes", len(keys), len(hs)))
	}
	if len(keys) == 0 {
		return
	}
	for i, k := range keys {
		gi := w.group(k)
		w.gvals[gi] = append(w.gvals[gi], hs[i])
	}
	w.apply(true)
}

// updateKeyedStringBatch groups string items by key while hashing each
// item with hashItem in the same pass — one scan, no intermediate
// hashed slice — then applies the runs through the pre-hashed path.
// The Θ and HLL table writers bind hashItem to their seed once.
func (w *Writer[K, V, S, C]) updateKeyedStringBatch(keys []K, items []string, hashItem func(string) V) {
	if len(keys) != len(items) {
		panic(fmt.Sprintf("table: UpdateKeyedStringBatch length mismatch: %d keys, %d items", len(keys), len(items)))
	}
	if len(keys) == 0 {
		return
	}
	for i, k := range keys {
		gi := w.group(k)
		w.gvals[gi] = append(w.gvals[gi], hashItem(items[i]))
	}
	w.apply(true)
}

// BatchAdd stages one (key, value) update in the writer's grouping
// scratch without applying it. It is pass 1 of the grouped ingestion
// exposed as a streaming entry point: a decoder walking a wire frame
// can feed pairs one at a time — no intermediate key/value slices —
// and commit the whole batch with BatchCommit (or BatchCommitHashed
// when the values are already item hashes). Staged state is invisible
// to queries until committed.
func (w *Writer[K, V, S, C]) BatchAdd(k K, v V) {
	gi := w.group(k)
	w.gvals[gi] = append(w.gvals[gi], v)
}

// BatchLookup reports the group index k is already staged under,
// without registering it. It lets a streaming decoder probe with a
// transient view of a key (bytes aliasing a network buffer) and only
// materialize an owned copy — via BatchGroup — when the key is new to
// the batch; the grouping scratch retains registered keys, so a view
// must never reach BatchGroup.
func (w *Writer[K, V, S, C]) BatchLookup(k K) (int, bool) {
	gi, ok := w.gidx[k]
	return gi, ok
}

// BatchGroup registers k in the staged batch (first sight allowed) and
// returns its group index for BatchAppend.
func (w *Writer[K, V, S, C]) BatchGroup(k K) int { return w.group(k) }

// BatchAppend stages one value onto a group obtained from BatchLookup
// or BatchGroup.
func (w *Writer[K, V, S, C]) BatchAppend(gi int, v V) {
	w.gvals[gi] = append(w.gvals[gi], v)
}

// BatchCommit applies every staged update and leaves the scratch
// empty, exactly as UpdateKeyedBatch's pass 2 would.
func (w *Writer[K, V, S, C]) BatchCommit() {
	if len(w.gkeys) == 0 {
		return
	}
	w.apply(false)
}

// BatchCommitHashed is BatchCommit for staged values that are already
// item hashes in the sketch family's hash space.
func (w *Writer[K, V, S, C]) BatchCommitHashed() {
	if len(w.gkeys) == 0 {
		return
	}
	w.apply(true)
}

// BatchReset discards every staged update, restoring the scratch to
// the state a committed batch leaves behind. A decoder that fails
// mid-stream must reset, or its partial batch would leak into the
// handle's next commit.
func (w *Writer[K, V, S, C]) BatchReset() {
	for _, si := range w.shardOrder {
		for _, gi := range w.shardGroups[si] {
			w.gvals[gi] = w.gvals[gi][:0]
		}
		w.shardGroups[si] = w.shardGroups[si][:0]
	}
	clear(w.gidx)
	w.gkeys = w.gkeys[:0]
	w.ghash = w.ghash[:0]
	w.shardOrder = w.shardOrder[:0]
}

// group resolves the batch group index for a key, registering the key
// with its shard on first sight (pass 1 of the grouped ingestion).
func (w *Writer[K, V, S, C]) group(k K) int {
	gi, ok := w.gidx[k]
	if !ok {
		gi = len(w.gkeys)
		w.gidx[k] = gi
		w.gkeys = append(w.gkeys, k)
		h := keyHash(k)
		w.ghash = append(w.ghash, h)
		if len(w.gvals) <= gi {
			w.gvals = append(w.gvals, nil)
			w.entries = append(w.entries, nil)
			w.gepochs = append(w.gepochs, 0)
		}
		si := h & w.t.mask
		if len(w.shardGroups[si]) == 0 {
			w.shardOrder = append(w.shardOrder, int(si))
		}
		w.shardGroups[si] = append(w.shardGroups[si], gi)
	}
	return gi
}

// apply drains the grouped runs into the per-key sketches (pass 2 of
// the grouped ingestion), leaving the grouping scratch empty. hashed
// selects the pre-hashed ingestion path.
//
// Locking discipline: the resolve rounds record (entry, shard-epoch
// stamp) pairs without holding any entry lock, and the apply round
// locks exactly one entry at a time, re-validating its stamp before
// use (the cache-hit protocol, applied uniformly). No entry lock is
// ever held while a shard lock is acquired and no two entry locks are
// held together — which is what lets hot-key promotion take entry
// locks exclusively while the entry is still mapped, without forming
// a reader/writer lock cycle against concurrent batches and queries.
func (w *Writer[K, V, S, C]) apply(hashed bool) {
	t := w.t
	now := t.now()
	// Fold this batch's entry-cache hit/miss deltas into the writer's
	// table-side cell on the way out: two uncontended atomic adds per
	// batch, nothing per key.
	h0, m0 := w.chits, w.cmisses
	for _, si := range w.shardOrder {
		sh := &t.shards[si]
		groups := w.shardGroups[si]
		w.missing = w.missing[:0]
		created := false
		// Round 0: writer entry cache — lock-free candidate probes.
		for _, gi := range groups {
			if e, ep := w.cacheProbe(w.gkeys[gi], w.ghash[gi]); e != nil {
				w.entries[gi] = e
				w.gepochs[gi] = ep
			} else {
				w.missing = append(w.missing, gi)
			}
		}
		if len(w.missing) > 0 {
			// Round 1: resolve cache misses through the shard map under
			// the read lock, collecting absent keys.
			w.creating = w.creating[:0]
			sh.mu.RLock()
			ep := sh.epoch.Load()
			for _, gi := range w.missing {
				if e := sh.m[w.gkeys[gi]]; e != nil {
					w.entries[gi] = e
					w.gepochs[gi] = ep
					w.cacheStore(w.gkeys[gi], w.ghash[gi], e, ep)
				} else {
					w.creating = append(w.creating, gi)
				}
			}
			sh.mu.RUnlock()
			if len(w.creating) > 0 {
				// Round 2: create absent keys under the write lock.
				created = true
				sh.mu.Lock()
				epw := sh.epoch.Load()
				for _, gi := range w.creating {
					k := w.gkeys[gi]
					e := sh.m[k]
					if e == nil {
						e = t.newEntry(w.ghash[gi])
						sh.m[k] = e
						t.keys.Add(1)
					}
					w.entries[gi] = e
					w.gepochs[gi] = epw
					w.cacheStore(k, w.ghash[gi], e, epw)
				}
				sh.mu.Unlock()
			}
		}
		// Round 3: apply each run under its entry's lock alone.
		for _, gi := range groups {
			e := w.entries[gi]
			e.mu.RLock()
			if sh.epoch.Load() != w.gepochs[gi] {
				// A key left this shard between resolve and use; the
				// entry may be the one evicted. Re-resolve through the
				// map (creating a fresh incarnation if needed) — no
				// other lock is held here, so getOrCreate's coupling
				// is safe.
				e.mu.RUnlock()
				var ep uint64
				e, ep = t.getOrCreate(sh, w.gkeys[gi], w.ghash[gi])
				w.cacheStore(w.gkeys[gi], w.ghash[gi], e, ep)
				created = true
			}
			run := w.gvals[gi]
			if hashed {
				e.sk.UpdateHashedBatch(w.id, run)
			} else {
				e.sk.UpdateBatch(w.id, run)
			}
			e.touched.Store(now)
			if t.noteHot(e, len(run)) {
				w.hotPending = append(w.hotPending, hotRef[V, S, C]{e: e, h: w.ghash[gi]})
			}
			e.mu.RUnlock()
			w.entries[gi] = nil
			w.gvals[gi] = w.gvals[gi][:0]
		}
		w.shardGroups[si] = w.shardGroups[si][:0]
		if created {
			t.maybeEvictCap(uint64(si))
		}
	}
	clear(w.gidx) // one bulk reset beats a delete per distinct key
	w.gkeys = w.gkeys[:0]
	w.ghash = w.ghash[:0]
	w.shardOrder = w.shardOrder[:0]
	// Promote after the batch's own entry locks are all released;
	// promote itself takes each entry's lock exclusively, one at a
	// time, holding nothing else.
	for _, p := range w.hotPending {
		t.promote(p.e, p.h)
	}
	w.hotPending = w.hotPending[:0]
	t.wstats[w.id].hits.Add(w.chits - h0)
	t.wstats[w.id].misses.Add(w.cmisses - m0)
}

// FlushKey hands off this writer's buffered updates for one key and
// waits until they are folded into the key's global sketch.
func (w *Writer[K, V, S, C]) FlushKey(k K) {
	t := w.t
	sh := &t.shards[keyHash(k)&t.mask]
	sh.mu.RLock()
	e := sh.m[k]
	if e == nil {
		sh.mu.RUnlock()
		return
	}
	e.mu.RLock()
	sh.mu.RUnlock()
	e.sk.Flush(w.id)
	e.mu.RUnlock()
}
