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
// atomic snapshot read, and batch ingestion touches each shard lock at
// most once per batch. Size-cap and TTL eviction spill evicted keys as
// compact serialized snapshots through the OnEvict callback, and whole
// tables serialize to a binary snapshot that merges with snapshots from
// other processes for distributed aggregation.
//
// A keyed batch is ingested in two passes. Pass 1 looks at every item
// once: it hashes the value into the family's space (core.Engine's
// HashValue — staged values have that one meaning whatever entry point
// they came through), finds the key's group in the batch, and appends.
// Pass 2 resolves each distinct key's entry and hands the key's run to
// its sketch under the entry's lock. Each Writer keeps a direct-mapped
// key→entry cache whose slot holds, for a resident key, its entry and
// a shard-epoch stamp (bumped whenever a key leaves the shard's map),
// its group in the batch being staged, and — for a family with
// core.FilterEngine, which is Θ — the hint the key's sketch last gave
// this writer. With those, pass 1 filters before it groups: an item
// whose hash fails ShouldAdd against the slot's hint is dropped on the
// spot, before it reaches a map, a lock or a sketch. That is Algorithm
// 1's calcHint/shouldAdd (lines 24/26) lifted from the per-sketch
// writer to the composite's; on a table whose keys are far above K it
// disposes of nearly every item, as the paper's filter does for a
// single sketch (§5.2).
//
// Why dropping is sound: a slot is trusted only after its stamp
// re-validates, once per key per batch and before the first drop. The
// stamp is bumped inside the critical section that removes a key, so a
// current stamp means the entry is in the map at that instant, and its
// sketch's Θ — which only falls, through promotion rebuilds too — is at
// or below the cached hint. Every item of the batch was handed over
// before that instant, so the dropped ones may all linearise there: as
// updates to a live key that took effect at once and changed nothing.
// They never occupy a buffer, so r = 2·N·b is untouched; they are
// updates, so the key's touched time and hit count are credited for
// them as for a run that reached the sketch. A stale stamp empties the
// slot and the key takes the unfiltered path through the shard map, so
// an evicted key is never resurrected, or filtered against, through the
// cache.
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
// Files follow the lifecycle: table.go holds Table, its entries and
// key resolution; writer.go the Writer and its two passes; hot.go the
// HotKeyPolicy ladder (promotion, demotion); evict.go cap and TTL
// eviction, Drain and Close; read.go whole-table reads; serde.go the
// FCTB snapshot format. The family types only name a Table.
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
// (membership only, never sketch state).
type shard[K Key, V, S, C any] struct {
	mu sync.RWMutex
	m  map[K]*entry[V, S, C]
}

// Table is the keyed sketch table: the whole lifecycle — keyed
// ingestion, wait-free per-key queries, rollup, whole-table snapshots,
// eviction spill, drain, close — written once against core.Engine and
// shared by every sketch family. ThetaTable, QuantilesTable and
// HLLTable embed it and add only family-flavoured names and configs;
// composites that are generic themselves (the windowed table, the
// network server) use it directly.
type Table[K Key, V, S, C any] struct {
	cfg  Config[K]
	eng  core.Engine[V, S, C]
	pool *core.PropagatorPool
	// ownPool is true when the table created (and must close) its pool.
	ownPool bool

	shards []shard[K, V, S, C]
	mask   uint64
	// epochs[i] counts shard i's map removals — the coherence stamp for
	// per-writer entry caches: any eviction, expiry or close that
	// deletes a key bumps it (inside the shard's critical section, which
	// is therefore the removal's linearisation point), invalidating
	// every cached entry of that shard at its next validation. Writers
	// load a stamp once per key per batch, so the stamps live apart from
	// the shard locks: next to shard.mu every reader-count update of a
	// miss would invalidate the line the hits are polling.
	epochs []atomic.Uint64
	// perShardCap is ceil(MaxKeys/Shards), 0 when uncapped.
	perShardCap int
	// ages is true when anything reads entry.touched — a key cap, a TTL
	// or a demotion policy. Without one a writer does not stamp a key
	// whose whole run it dropped in pass 1: it holds no lock on that
	// entry and would dirty, from every writer on every batch, a line of
	// a hot entry it otherwise only reads. A run that reaches the sketch
	// stamps its entry regardless, as it always did, under the lock it
	// holds anyway.
	ages bool

	// filt is the engine's writer-side filter (Algorithm 1's shouldAdd),
	// nil for families without one; see Writer.
	filt core.FilterEngine[V]

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

// New builds a keyed table whose per-key sketches come from the given
// engine; Close it when done.
func New[K Key, V, S, C any](cfg Config[K], eng core.Engine[V, S, C]) *Table[K, V, S, C] {
	cfg = cfg.withDefaults()
	t := &Table[K, V, S, C]{
		cfg:    cfg,
		eng:    eng,
		pool:   cfg.Pool,
		shards: make([]shard[K, V, S, C], cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
		epochs: make([]atomic.Uint64, cfg.Shards),
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
	t.filt, _ = any(eng).(core.FilterEngine[V])
	t.initHot(cfg.HotKeys)
	t.ages = t.perShardCap > 0 || cfg.TTL > 0 || (t.hot != nil && t.hot.CoolAfter > 0)
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
	hits        atomic.Int64
	misses      atomic.Int64
	prefiltered atomic.Int64
	_           [104]byte
}

// Stats is a point-in-time snapshot of the table's operational
// counters, the per-subsystem attribution exported through
// Table.RegisterMetrics.
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
	// ShardLookups counts the misses resolved through shard maps. A
	// batch resolves each of its distinct keys once, whether or not any
	// of the key's items survived the writer-side filter.
	CacheHits    int64
	ShardLookups int64
	// Prefiltered counts items a writer dropped in pass 1 against its
	// key's cached filter hint (families with core.FilterEngine only):
	// updates that never reached a lock or a sketch.
	Prefiltered int64
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
		s.Prefiltered += t.wstats[i].prefiltered.Load()
	}
	return s
}

// NumWriters returns the configured writer-handle count N.
func (t *Table[K, V, S, C]) NumWriters() int { return t.cfg.Writers }

// Engine returns the engine whose sketches populate the table.
func (t *Table[K, V, S, C]) Engine() core.Engine[V, S, C] { return t.eng }

// Relaxation returns the per-key bound r = 2·N·b on updates a per-key
// query may miss (Theorem 1, applied to one key's sketch).
func (t *Table[K, V, S, C]) Relaxation() int { return t.eng.Relaxation() }

// Query returns the key's current wait-free query snapshot; false when
// the key has never been updated (or was evicted). The snapshot may
// miss up to Relaxation() of the key's latest updates. The shard
// read-lock guards only map membership; the snapshot itself is the
// framework's single atomic read and is never blocked by ingestion or
// propagation. With a hot-key policy the entry lock is additionally
// held shared, to pin the sketch identity against a racing promotion —
// a promoted key's live sketch carries its full history (the rebuild
// is seeded from the old compact), so the query is still one snapshot
// read.
func (t *Table[K, V, S, C]) Query(k K) (S, bool) {
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

// CompactKey returns an immutable serializable snapshot of one key's
// sketch; false when the key is not live.
func (t *Table[K, V, S, C]) CompactKey(k K) (C, bool) {
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

// getOrCreate resolves the entry for a key of shard si, creating it
// lazily, and returns it with its liveness lock held shared (the caller
// must release it after the sketch call) plus the shard epoch observed
// while the entry was provably in the map — the stamp a writer cache
// slot needs. Lock coupling with the shard lock guarantees an evictor
// cannot close the sketch in between.
func (t *Table[K, V, S, C]) getOrCreate(si uint64, k K, h uint64) (*entry[V, S, C], uint64) {
	sh := &t.shards[si]
	sh.mu.RLock()
	if e := sh.m[k]; e != nil {
		ep := t.epochs[si].Load()
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
	ep := t.epochs[si].Load()
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
