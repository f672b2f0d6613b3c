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
// (membership only, never sketch state).
type shard[K Key, V, S, C any] struct {
	mu sync.RWMutex
	m  map[K]*entry[V, S, C]
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

func newTable[K Key, V, S, C any](cfg Config[K], eng core.Engine[V, S, C]) *Table[K, V, S, C] {
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

// writerCacheSize is the per-writer direct-mapped entry-cache size (a
// power of two). A key without a slot is neither grouped nor filtered
// through the cache, and on a hot table that is most of what a batch
// costs. Measured with BenchmarkTableHotKeys (the benchmark's table_hot
// shape: 1 000 zipf(1.2) keys, 2 048-item batches of ~350 distinct
// keys, 100 passes): 512 slots leave 150 of a batch's keys to the shard
// map and pass 1 drops 89 % of all items; 2 048 slots leave 52 and drop
// 95 %; 4 096 leave 31 (96 %) and 8 192 leave 15 (97 %), each doubling
// past 2 048 worth a few percent of throughput. 2 048 slots of 64 B
// (uint64 keys) are 128 KB per writer handle.
const writerCacheSize = 2048

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
		gen:         1, // a just-filled slot's zero gen must never match
		shardGroups: make([][]int, t.cfg.Shards),
		cache:       make([]cslot[K, V, S, C], writerCacheSize),
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

// Writer is a single-goroutine keyed ingestion handle: table writer i
// drives slot i of every per-key sketch it touches. All grouping
// scratch is retained across calls, so steady-state keyed batches
// allocate only when a batch introduces new distinct keys or values
// outgrow their run buffers.
//
// Each writer owns a direct-mapped key→entry cache that does three
// jobs for a batch. It resolves: a resident key's entry comes from its
// slot, skipping the shard read-lock and map lookup, after the slot's
// shard-epoch stamp is re-validated — a stale stamp (any key left that
// shard's map since the slot was filled) drops the slot and the key
// resolves through the shard map again, so an evicted key's entry is
// never written, or filtered against, through the cache. It groups: the
// slot remembers the key's group in the batch being staged, so only
// keys that are not resident go through the gidx map. And, for a family
// with core.FilterEngine, it filters: the slot remembers the hint the
// key's sketch gave when it last took a run from this writer, and pass
// 1 drops an item that fails ShouldAdd against it on the spot — before
// the item reaches a map, a lock or a sketch.
type Writer[K Key, V, S, C any] struct {
	t  *Table[K, V, S, C]
	id int

	// groups are the distinct keys of the batch being staged, in order
	// of first sight (elements past the end keep their run buffers, and
	// whatever else the last batch left in them, until register reuses
	// them). gidx indexes the groups of keys not resident in the
	// entry cache; shardGroups buckets group indices by shard (len =
	// Shards) and shardOrder lists touched shards. gen numbers the
	// handle's batches: a slot's group index counts only while the
	// slot's gen equals it.
	groups      []bgroup[K, V, S, C]
	gidx        map[K]int
	gen         uint64
	shardGroups [][]int
	shardOrder  []int
	missing     []int
	creating    []int

	// cache is the entry cache, indexed by key hash. chits/cmisses count
	// key resolutions, one per key per batch (single-goroutine, like the
	// writer itself).
	cache   []cslot[K, V, S, C]
	chits   int64
	cmisses int64

	// hotPending collects entries whose promotion threshold a batch
	// crossed; promotions run after every entry lock of the batch is
	// released (promotion takes the entry lock exclusively).
	hotPending []hotRef[V, S, C]
}

// keyRef is what a writer knows about one key without asking the table:
// the key and its hash, its entry, the shard-epoch stamp under which the
// entry was seen in the map, and the last filter hint of the entry's
// sketch (filter false: none). hint and filter belong to e and are
// forgotten whenever e changes.
type keyRef[K Key, V, S, C any] struct {
	key    K
	hash   uint64
	e      *entry[V, S, C] // nil: unresolved (a group) or empty (a slot)
	epoch  uint64
	hint   V
	filter bool
}

// cslot is one slot of a writer's entry cache: a key's keyRef and, while
// gen is the writer's current batch, the key's group in it — all pass 1
// needs to be done with an item. 64 bytes for a uint64 key, so a probe
// is one cache line.
type cslot[K Key, V, S, C any] struct {
	keyRef[K, V, S, C]
	gen uint64
	gi  int32
}

// bgroup is one distinct key of a staged batch: its run of staged
// values and the count of further items pass 1 dropped against hint.
// For a key found in the entry cache the keyRef is the slot's at the
// moment its stamp was validated (a copy, so the slot may change hands
// before the batch commits); for any other key e is nil until apply
// resolves it, and nothing is filtered.
type bgroup[K Key, V, S, C any] struct {
	keyRef[K, V, S, C]
	drops int
	vals  []V
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
func (w *Writer[K, V, S, C]) cacheLookup(k K, h uint64) *entry[V, S, C] {
	s := w.resident(k, h)
	if s == nil {
		w.cmisses++
		return nil
	}
	e := s.e
	e.mu.RLock()
	if w.t.epochs[h&w.t.mask].Load() != s.epoch {
		// A key left this shard since the slot was filled: the cached
		// entry may be the one evicted. Drop the slot and resolve
		// through the map.
		e.mu.RUnlock()
		s.e = nil
		w.cmisses++
		return nil
	}
	w.chits++
	return e
}

// resident returns k's cache slot, nil when the slot is empty or holds
// another key.
func (w *Writer[K, V, S, C]) resident(k K, h uint64) *cslot[K, V, S, C] {
	if s := &w.cache[h&(writerCacheSize-1)]; s.e != nil && s.hash == h && s.key == k {
		return s
	}
	return nil
}

// CacheStats returns the writer's entry-cache hit/miss counters. Like
// every Writer method, single-goroutine use.
func (w *Writer[K, V, S, C]) CacheStats() (hits, misses int64) { return w.chits, w.cmisses }

// cacheStore fills the cache slot for a key resolved through the slow
// path. epoch must have been loaded while the entry was provably in
// the shard map (under the shard lock). Whatever the slot knew about
// its previous entry — hint, group — is forgotten.
func (w *Writer[K, V, S, C]) cacheStore(k K, h uint64, e *entry[V, S, C], epoch uint64) {
	w.cache[h&(writerCacheSize-1)] = cslot[K, V, S, C]{keyRef: keyRef[K, V, S, C]{key: k, hash: h, e: e, epoch: epoch}}
}

// admit caches a key apply just resolved through the shard map, unless
// the slot's resident is a key of this same batch with a run at least
// as long: two keys that share a slot would otherwise evict each other
// every batch and neither would ever be grouped or filtered through it,
// so the slot goes to the hotter one.
func (w *Writer[K, V, S, C]) admit(g *bgroup[K, V, S, C]) {
	if s := &w.cache[g.hash&(writerCacheSize-1)]; s.e != nil && s.gen == w.gen {
		if r := &w.groups[s.gi]; len(r.vals)+r.drops >= len(g.vals)+g.drops {
			return
		}
	}
	w.cacheStore(g.key, g.hash, g.e, g.epoch)
}

// rehint refreshes the cached filter hint of a key from the sketch that
// was just handed a run, if the key still owns its slot. The caller
// holds e.mu, which pins e.sk.
func (w *Writer[K, V, S, C]) rehint(h uint64, e *entry[V, S, C]) {
	s := &w.cache[h&(writerCacheSize-1)]
	if s.e != e {
		return
	}
	fs, ok := e.sk.(core.FilterSketch[V])
	if ok {
		s.hint, ok = fs.CalcHint()
	}
	s.filter = ok
}

// UpdateKeyed processes one (key, value) update.
func (w *Writer[K, V, S, C]) UpdateKeyed(k K, v V) {
	t := w.t
	h := keyHash(k)
	si := h & t.mask
	e := w.cacheLookup(k, h)
	created := e == nil
	if created {
		var ep uint64
		e, ep = t.getOrCreate(si, k, h)
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

// UpdateKeyedBatch processes parallel slices of keys and values: each
// value is hashed into the family's space and staged under its key
// (dropped at once if the key's cached hint rules it out), the distinct
// keys are grouped by shard so each shard lock is taken at most once,
// and each key's surviving run enters its sketch through the pre-hashed
// batch path. Slices must have equal length.
func (w *Writer[K, V, S, C]) UpdateKeyedBatch(keys []K, vals []V) {
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("table: UpdateKeyedBatch length mismatch: %d keys, %d values", len(keys), len(vals)))
	}
	if len(keys) == 0 {
		return
	}
	eng := w.t.eng
	for i, k := range keys {
		w.stage(k, eng.HashValue(vals[i]))
	}
	w.apply()
}

// UpdateKeyedHashedBatch is UpdateKeyedBatch for values that are
// already item hashes in the sketch family's hash space (the engine's
// HashValue or its string twin).
func (w *Writer[K, V, S, C]) UpdateKeyedHashedBatch(keys []K, hs []V) {
	if len(keys) != len(hs) {
		panic(fmt.Sprintf("table: UpdateKeyedHashedBatch length mismatch: %d keys, %d hashes", len(keys), len(hs)))
	}
	if len(keys) == 0 {
		return
	}
	for i, k := range keys {
		w.stage(k, hs[i])
	}
	w.apply()
}

// updateKeyedStringBatch stages string items while hashing each with
// hashItem in the same pass — one scan, no intermediate hashed slice.
// The Θ and HLL table writers bind hashItem to their seed once.
func (w *Writer[K, V, S, C]) updateKeyedStringBatch(keys []K, items []string, hashItem func(string) V) {
	if len(keys) != len(items) {
		panic(fmt.Sprintf("table: UpdateKeyedStringBatch length mismatch: %d keys, %d items", len(keys), len(items)))
	}
	if len(keys) == 0 {
		return
	}
	for i, k := range keys {
		w.stage(k, hashItem(items[i]))
	}
	w.apply()
}

// BatchAdd stages one (key, raw value) update without applying it. It
// is pass 1 of the grouped ingestion exposed as a streaming entry
// point: a decoder walking a wire frame can feed pairs one at a time —
// no intermediate key/value slices — and commit the whole batch with
// BatchCommit. Staged state is invisible to queries until committed.
//
// Staged values have one meaning, the family's hashed form: BatchAdd
// and BatchAppend hash the raw value on the way in, BatchAddHashed and
// BatchAppendHashed take a value that already is a hash.
func (w *Writer[K, V, S, C]) BatchAdd(k K, v V) { w.stage(k, w.t.eng.HashValue(v)) }

// BatchAddHashed is BatchAdd for a value that is already an item hash
// in the sketch family's hash space.
func (w *Writer[K, V, S, C]) BatchAddHashed(k K, h V) { w.stage(k, h) }

// BatchLookup reports the group index k is staged under, without
// retaining k. It lets a streaming decoder probe with a transient view
// of a key (bytes aliasing a network buffer) and only materialize an
// owned copy — via BatchGroup — when the table has no copy of its own:
// a key resident in the writer's entry cache is registered from the
// slot's copy on first sight, any other key must have been registered
// by BatchGroup already. The grouping scratch retains registered keys,
// so a view must never reach BatchGroup.
func (w *Writer[K, V, S, C]) BatchLookup(k K) (int, bool) { return w.lookup(k, keyHash(k)) }

// BatchGroup registers k in the staged batch (first sight allowed) and
// returns its group index for BatchAppend.
func (w *Writer[K, V, S, C]) BatchGroup(k K) int { return w.group(k) }

// BatchAppend stages one raw value onto a group obtained from
// BatchLookup or BatchGroup.
func (w *Writer[K, V, S, C]) BatchAppend(gi int, v V) { w.add(gi, w.t.eng.HashValue(v)) }

// BatchAppendHashed is BatchAppend for a value that is already an item
// hash.
func (w *Writer[K, V, S, C]) BatchAppendHashed(gi int, h V) { w.add(gi, h) }

// BatchCommit applies every staged update and leaves the scratch
// empty, exactly as UpdateKeyedBatch's pass 2 would. A batch whose
// items were all dropped in pass 1 still commits: its keys were
// updated, and are credited as such.
func (w *Writer[K, V, S, C]) BatchCommit() {
	if len(w.groups) == 0 {
		return
	}
	w.apply()
}

// BatchReset discards every staged update — values, drop counts and
// the slots' group marks — restoring the scratch to the state a
// committed batch leaves behind; nothing is credited to any key. A
// decoder that fails mid-stream must reset, or its partial batch would
// leak into the handle's next commit.
func (w *Writer[K, V, S, C]) BatchReset() {
	for _, si := range w.shardOrder {
		w.shardGroups[si] = w.shardGroups[si][:0]
	}
	w.endBatch()
}

// endBatch empties the grouping scratch behind a committed or discarded
// batch; the new generation retires every slot's group mark at once.
func (w *Writer[K, V, S, C]) endBatch() {
	if len(w.gidx) > 0 {
		clear(w.gidx) // one bulk reset beats a delete per distinct key
	}
	w.groups = w.groups[:0]
	w.shardOrder = w.shardOrder[:0]
	w.gen++
}

// stage is pass 1 for one item, whatever entry point it came through:
// h is the value in the family's hashed form.
func (w *Writer[K, V, S, C]) stage(k K, h V) { w.add(w.group(k), h) }

// add stages h onto group gi, unless the group's hint says the key's
// sketch would discard it (Algorithm 1 line 26, asked before the item
// is buffered anywhere): then the item is only counted.
func (w *Writer[K, V, S, C]) add(gi int, h V) {
	g := &w.groups[gi]
	if g.filter && !w.t.filt.ShouldAdd(g.hint, h) {
		g.drops++
		return
	}
	g.vals = append(g.vals, h)
}

// group resolves k's group in the staged batch, registering the key
// with its shard on first sight.
func (w *Writer[K, V, S, C]) group(k K) int {
	h := keyHash(k)
	gi, ok := w.lookup(k, h)
	if !ok {
		gi = w.register(k, h)
		w.gidx[k] = gi
	}
	return gi
}

// lookup finds k's group: through its cache slot when the key is
// resident (entering it into the batch on first sight), through gidx
// otherwise. No slot is filled or handed to another key while a batch
// is being staged, so a key is found the same way every time.
func (w *Writer[K, V, S, C]) lookup(k K, h uint64) (int, bool) {
	if s := w.resident(k, h); s != nil && (s.gen == w.gen || w.enter(s)) {
		return int(s.gi), true
	}
	gi, ok := w.gidx[k]
	return gi, ok
}

// enter registers a resident key on its first item of a batch, after
// validating the slot's stamp: the epoch is bumped inside the critical
// section that removes a key, so a stamp still current now means the
// entry is in the map now, and its sketch's Θ is at or below any hint
// it ever gave. Every item of the batch was handed over before this
// point, so the ones pass 1 drops may all take effect here — on a live
// key, changing nothing — whatever happens to the entry before the
// survivors are applied. A stale stamp empties the slot and reports
// false: the key takes the unfiltered path through the shard map.
func (w *Writer[K, V, S, C]) enter(s *cslot[K, V, S, C]) bool {
	if w.t.epochs[s.hash&w.t.mask].Load() != s.epoch {
		s.e = nil
		return false
	}
	gi := w.register(s.key, s.hash)
	w.groups[gi].keyRef = s.keyRef
	s.gen, s.gi = w.gen, int32(gi)
	return true
}

// register appends an empty, unresolved group for a key new to the
// batch, reusing the run buffer a previous batch left at that index, and
// files it under its shard.
func (w *Writer[K, V, S, C]) register(k K, h uint64) int {
	gi := len(w.groups)
	if gi < cap(w.groups) {
		w.groups = w.groups[:gi+1]
	} else {
		w.groups = append(w.groups, bgroup[K, V, S, C]{})
	}
	g := &w.groups[gi]
	g.keyRef = keyRef[K, V, S, C]{key: k, hash: h}
	g.drops, g.vals = 0, g.vals[:0]
	si := h & w.t.mask
	if len(w.shardGroups[si]) == 0 {
		w.shardOrder = append(w.shardOrder, int(si))
	}
	w.shardGroups[si] = append(w.shardGroups[si], gi)
	return gi
}

// apply drains the staged runs into the per-key sketches (pass 2 of
// the grouped ingestion), leaving the grouping scratch empty.
//
// Locking discipline: the resolve rounds record (entry, shard-epoch
// stamp) pairs without holding any entry lock, and the apply round
// locks exactly one entry at a time, re-validating its stamp before
// use (the cache-hit protocol, applied uniformly). No entry lock is
// ever held while a shard lock is acquired and no two entry locks are
// held together — which is what lets hot-key promotion take entry
// locks exclusively while the entry is still mapped, without forming
// a reader/writer lock cycle against concurrent batches and queries.
func (w *Writer[K, V, S, C]) apply() {
	t := w.t
	now := t.now()
	// Fold this batch's hit/miss/drop counts into the writer's
	// table-side cell on the way out: three uncontended atomic adds per
	// batch, nothing per key.
	h0, m0 := w.chits, w.cmisses
	dropped := 0
	for _, si := range w.shardOrder {
		sh := &t.shards[si]
		epoch := &t.epochs[si]
		groups := w.shardGroups[si]
		w.missing = w.missing[:0]
		created := false
		// Round 0: keys pass 1 found in the entry cache arrive resolved.
		for _, gi := range groups {
			if w.groups[gi].e != nil {
				w.chits++
			} else {
				w.cmisses++
				w.missing = append(w.missing, gi)
			}
		}
		if len(w.missing) > 0 {
			// Round 1: resolve cache misses through the shard map under
			// the read lock, collecting absent keys.
			w.creating = w.creating[:0]
			sh.mu.RLock()
			ep := epoch.Load()
			for _, gi := range w.missing {
				g := &w.groups[gi]
				if e := sh.m[g.key]; e != nil {
					g.e, g.epoch = e, ep
					w.admit(g)
				} else {
					w.creating = append(w.creating, gi)
				}
			}
			sh.mu.RUnlock()
			if len(w.creating) > 0 {
				// Round 2: create absent keys under the write lock.
				created = true
				sh.mu.Lock()
				epw := epoch.Load()
				for _, gi := range w.creating {
					g := &w.groups[gi]
					e := sh.m[g.key]
					if e == nil {
						e = t.newEntry(g.hash)
						sh.m[g.key] = e
						t.keys.Add(1)
					}
					g.e, g.epoch = e, epw
					w.admit(g)
				}
				sh.mu.Unlock()
			}
		}
		// Round 3: apply each run under its entry's lock alone.
		for _, gi := range groups {
			g := &w.groups[gi]
			e := g.e
			dropped += g.drops
			if len(g.vals) == 0 && g.drops > 0 {
				// Pass 1 dropped the key's whole run against an entry it
				// had just seen in the map: the key was updated and
				// nothing changed, so there is no sketch call to hold a
				// lock for — only the credit a run would have left.
				if t.ages {
					e.touched.Store(now)
				}
				w.noteHot(g, e)
			} else {
				e.mu.RLock()
				if epoch.Load() != g.epoch {
					// A key left this shard between resolve and use; the
					// entry may be the one evicted. Re-resolve through the
					// map (creating a fresh incarnation if needed) — no
					// other lock is held here, so getOrCreate's coupling
					// is safe.
					e.mu.RUnlock()
					var ep uint64
					e, ep = t.getOrCreate(uint64(si), g.key, g.hash)
					w.cacheStore(g.key, g.hash, e, ep)
					created = true
				}
				e.sk.UpdateHashedBatch(w.id, g.vals)
				if t.filt != nil {
					w.rehint(g.hash, e)
				}
				e.touched.Store(now)
				w.noteHot(g, e)
				e.mu.RUnlock()
			}
		}
		w.shardGroups[si] = w.shardGroups[si][:0]
		if created {
			t.maybeEvictCap(uint64(si))
		}
	}
	w.endBatch()
	// Promote after the batch's own entry locks are all released;
	// promote itself takes each entry's lock exclusively, one at a
	// time, holding nothing else.
	for _, p := range w.hotPending {
		t.promote(p.e, p.h)
	}
	w.hotPending = w.hotPending[:0]
	cells := &t.wstats[w.id]
	cells.hits.Add(w.chits - h0)
	cells.misses.Add(w.cmisses - m0)
	cells.prefiltered.Add(int64(dropped))
}

// noteHot credits e with group g's whole run — the items staged and the
// items pass 1 dropped alike, since the hot-key policy, like TTL/LRU
// eviction, counts updates, not what the sketch kept of them — and
// queues the promotion if that crossed the threshold.
func (w *Writer[K, V, S, C]) noteHot(g *bgroup[K, V, S, C], e *entry[V, S, C]) {
	if w.t.noteHot(e, len(g.vals)+g.drops) {
		w.hotPending = append(w.hotPending, hotRef[V, S, C]{e: e, h: g.hash})
	}
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
