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
// sketches have outstanding handoffs, taking them from one shared run
// queue in the order they were scheduled. A windowed table keeps each
// key's sketch — an epoch ring — across epochs.
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
// A keyed batch is ingested in two passes. Pass 1 works through the
// batch in blocks of up to 256 items, and every batch entry point — the
// in-process UpdateKeyed*Batch calls and the staging pair BatchAddRun /
// BatchAddHashed a wire decoder feeds — reaches it through one block
// stager: it hashes a block's values into the family's space in one
// call (core.Engine's AppendHashValues, the batch form of HashValue —
// staged values have that one meaning whatever entry point they came
// through) and a block's uint64 keys in another (string keys one by
// one), then finds each item's group in the batch and appends. The
// staging pair takes keys that may alias the caller's buffer; a string
// key is copied only where the writer first keeps it. Pass 2 resolves
// each distinct key's entry and hands the key's run to its sketch
// under the entry's lock. A single UpdateKeyed hashes its one value
// with HashValue. Either way the Writer is the one place a raw value
// becomes a hash: a key's sketch takes hashed values only
// (core.EngineSketch's UpdateHashed and UpdateHashedBatch). Each Writer keeps a direct-mapped
// key→entry cache whose slot holds, for a resident key, its entry and
// a shard-epoch stamp (bumped whenever a key leaves the shard's map),
// its group in the batch being staged, and — for a family with
// core.FilterEngine (Θ and HLL) — the hint the key's sketch last gave
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
// sketch has moved past the cached hint only in the direction that
// filters more (a Θ only falls, an HLL register floor only rises).
// Every item of the batch was handed over before that instant, so the
// dropped ones may all linearise there: as updates to a live key that
// took effect at once and changed nothing. They never occupy a buffer,
// so r = 2·N·b is untouched; they are updates, so the key's touched
// time is credited for them as for a run that reached the sketch. A
// stale stamp empties the slot and the key takes the unfiltered path
// through the shard map, so an evicted key is never resurrected, or
// filtered against, through the cache.
//
// One composite's sketch does let the hint go back: a windowed table's
// epoch ring, whose live sketch Sweep Resets when it seals an epoch (Θ
// rises to 1, the register floor drops to 0). Sweep bumps each shard's
// stamp inside the shard's critical section, before it seals any of
// that shard's rings. A writer that validated its slot before the bump
// drops items against the old epoch's hint; it validated while the old
// epoch was live, so the drops linearise there, before the seal, as
// updates that changed nothing. A writer that validates after the bump
// finds a stale stamp, re-resolves the key through the shard map and
// takes a fresh hint from the new live sketch after its first
// unfiltered run. Without the bump, a cached hint would silently drop
// the new epoch's items. A run already resolved re-checks the stamp
// under the entry lock before it reaches the sketch (see apply), so it
// lands wholly before or wholly after the seal.
//
// A Θ key has two representations, chosen from its own update count
// (flat → concurrent), never by an option. While it is in the paper's
// eager phase (§5.3: fewer than 2/e² updates, processed sequentially
// because r would dominate so short a stream) it is flat: one mutex and
// one array of distinct hashes inside its core.FamilySketch, not
// attached to the pool, every update visible on return. The update that
// reaches the eager limit builds the concurrent sketch from that array,
// and from then on the key is what the paragraphs above describe. For a
// table-owned pool, Keys() − Pool().Sketches() is the number of keys
// still flat. Measured on the benchmark's table_wide workload (47.8k
// live zipf keys, 47k of them never past the limit, K=256): ~510 B of
// heap per key (map slot, entry and sketch together) against ~1 850 B
// when every key was concurrent from its first update (~15 heap
// objects). A concurrent key holds its samples and little else: at
// K=256 with two writer slots, in estimation mode, ~5.4 KB of heap,
// 4 KB of it the 2k-slot sample table; ~13.9 KB while the table grew
// to 4k slots and the sketch kept a buffer for its rebuilds
// (TestConcurrentThetaKeyFootprint). Quantiles and HLL keys are
// concurrent from creation.
//
// Every shard keeps a floor (core.FloorSketch): a cell never above
// min(low, Θ) of any Θ key it holds, low being the smallest hash ever
// offered to the key. The Θ sketch lowers it itself, on every path that
// lowers low, under the lock that guards the samples and before they
// become readable; the table hands each sketch its shard's cell when it
// creates the entry (newEntry, the only place entries are made). A
// shard that never held a key keeps MaxUint64; a key whose sketch keeps
// no floor — quantiles, HLL, a window's epoch ring — sets its shard's
// cell to 0. Nothing raises a cell: an eviction, a Sweep or a Reset
// leaves it low, which only makes a rollup read more than it must. A
// rollup visits shards by ascending floor and skips, unread, every
// shard whose floor is at or above its worker's union bound (see
// read.go): no key there holds a sample the union can keep, nor a Θ
// that would change the union's. On the benchmark's table_wide shape
// (~47 k zipf keys, 1 024 shards, K=256) a two-worker rollup reads
// ~176 shards (BenchmarkTableRollup/wide).
//
// Files follow the lifecycle: table.go holds Table, its entries and key
// resolution; writer.go the Writer and its two passes; evict.go cap and
// TTL eviction, Drain, Sweep and Close; read.go whole-table reads;
// serde.go the FCTB snapshot format. The family types only name a
// Table.
package table

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
	"github.com/fcds/fcds/internal/metrics"
)

// Key is the set of supported table key types.
type Key = core.Key

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
	// Pool, when non-nil, is an external propagation executor shared
	// with other tables or sketches; the caller closes it after the
	// table. Nil gives the table its own pool of GOMAXPROCS workers.
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
	// ReadParallelism bounds the worker fan-out of the parallel read
	// paths (Rollup, Snapshot, SnapshotAppend): 0 means GOMAXPROCS at
	// call time, 1 forces the serial walk, higher values are clamped
	// to the work of the call — the live key count, or for a rollup
	// the shards it visits. Ingestion is never affected.
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
	if c.Writers < 0 {
		panic(fmt.Sprintf("table: Writers must be at least 1 (0 means 1), got %d", c.Writers))
	}
	return c
}

// entry is one live key. mu serialises sketch liveness: updaters hold
// it shared for the duration of their sketch calls, evictors hold it
// exclusive while draining and closing the sketch, and Sweep holds it
// exclusive while its visit reshapes the sketch. touched is the
// UnixNano of the last update, for TTL/LRU eviction.
type entry[V, S, C any] struct {
	mu      sync.RWMutex
	sk      core.EngineSketch[V, S, C]
	touched atomic.Int64
	// dead is set (under mu exclusive) once finalize, Sweep or Close
	// has closed sk; a whole-table read that collected the entry before
	// it left the map skips it.
	dead bool
}

// shard is one power-of-two slice of the key space. mu protects m
// (membership only, never sketch state). floor is the shard's
// core.FloorSketch cell: MaxUint64 while the shard has never held a
// key, 0 once it has held one whose sketch keeps no floor, and
// otherwise never above the floor of any sketch it holds. It only
// falls; a rollup skips, unread, a shard whose floor is at or above its
// aggregator's bound (see rollup).
type shard[K Key, V, S, C any] struct {
	mu    sync.RWMutex
	m     map[K]*entry[V, S, C]
	floor atomic.Uint64
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
	// ages is true when anything reads entry.touched — a key cap or a TTL.
	// Without one no writer stamps a key, nor reads the clock for a batch:
	// the store would dirty, from every writer on every batch, a line of
	// an entry the writers otherwise only read.
	ages bool

	// filt is the engine's writer-side filter (Algorithm 1's shouldAdd),
	// nil for families without one; see Writer.
	filt core.FilterEngine[V]

	keys      atomic.Int64
	evictions atomic.Int64
	evictCap  atomic.Int64
	evictTTL  atomic.Int64
	closed    atomic.Bool

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
		t.pool = core.NewPropagatorPool(0)
		t.ownPool = true
	}
	if cfg.MaxKeys > 0 {
		t.perShardCap = (cfg.MaxKeys + cfg.Shards - 1) / cfg.Shards
	}
	for i := range t.shards {
		t.shards[i].m = make(map[K]*entry[V, S, C])
		t.shards[i].floor.Store(math.MaxUint64)
	}
	t.wstats = make([]writerCells, cfg.Writers)
	t.filt, _ = any(eng).(core.FilterEngine[V])
	t.ages = t.perShardCap > 0 || cfg.TTL > 0
	return t
}

// keyHash returns the shard-placement hash of a key; the low bits pick
// the shard, the whole word indexes the writer entry caches. The
// any-boxing compiles to a type switch on the instantiation's shape and
// does not escape.
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
	// Promotions and Demotions always read 0: they counted the moves of
	// a hot-key promotion ladder the table no longer has (a hot Θ or HLL
	// key is filtered by its writers instead). They stay for readers
	// that still name them.
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

// Stats returns a snapshot of the table's operational counters.
func (t *Table[K, V, S, C]) Stats() Stats {
	s := Stats{
		Keys:         t.Keys(),
		Evictions:    t.evictions.Load(),
		EvictionsCap: t.evictCap.Load(),
		EvictionsTTL: t.evictTTL.Load(),
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
// propagation. The shard read lock also pins the sketch: every path
// that closes or reshapes it (eviction, Sweep, Close) holds the shard
// lock exclusive, or has removed the key from the map first.
func (t *Table[K, V, S, C]) Query(k K) (S, bool) {
	sh := &t.shards[keyHash(k)&t.mask]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.m[k]; e != nil {
		return e.sk.Query(), true
	}
	var zero S
	return zero, false
}

// CompactKey returns an immutable serializable snapshot of one key's
// sketch; false when the key is not live. The shard read lock pins the
// sketch, as in Query.
func (t *Table[K, V, S, C]) CompactKey(k K) (C, bool) {
	sh := &t.shards[keyHash(k)&t.mask]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.m[k]; e != nil {
		return e.sk.Compact(), true
	}
	var zero C
	return zero, false
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

// newEntry creates a live entry and hands its sketch the shard's floor
// cell — or, for a sketch that keeps no floor, sets the cell to 0 so
// rollups always read the shard. The caller holds the shard lock
// exclusive and has not yet published the entry, so the cell is right
// before the sketch can take an update. touched starts at now, not zero
// — a zero timestamp would make a just-created key the LRU victim and
// invert the eviction order.
func (t *Table[K, V, S, C]) newEntry(h uint64) *entry[V, S, C] {
	e := &entry[V, S, C]{sk: t.eng.NewSketch(t.pool)}
	floor := &t.shards[h&t.mask].floor
	if fs, ok := e.sk.(core.FloorSketch); ok {
		fs.SetFloor(floor)
	} else {
		floor.Store(0)
	}
	e.touched.Store(t.now())
	return e
}
