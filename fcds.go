// Package fcds is a Go implementation of "Fast Concurrent Data
// Sketches" (Rinberg et al., PODC'19 / PPoPP'20): a generic framework
// that turns sequential data sketches into high-throughput concurrent
// ones with wait-free real-time queries and a provable error bound.
//
// # Overview
//
// A data sketch is a small summary of a long stream that answers one
// statistical query approximately (unique count, quantiles, ...).
// Production sketch libraries are fast but not thread-safe; guarding
// them with a lock destroys scalability. This library reproduces the
// paper's solution: N writer goroutines ingest into small thread-local
// sketches while a background propagator continuously merges them into
// a shared, queryable global sketch. Queries are a single atomic read.
// The price is bounded staleness: a query may miss up to r = 2·N·b of
// the most recent updates (b is the local buffer size) — the paper
// proves the algorithm strongly linearisable with respect to this
// r-relaxed specification and bounds the induced estimation error.
//
// Three sketches are instantiated: the Θ (unique counting) sketch, the
// Quantiles sketch, and HyperLogLog. For small streams, where missing
// r updates would dominate the error, the framework adaptively
// propagates eagerly (sequentially) and switches to concurrent lazy
// mode once the stream exceeds 2/e² items, keeping the relative error
// below the configured e at every size.
//
// # Batch ingestion
//
// Real streams arrive in batches (network feeds, log shippers), and
// the batch APIs are the recommended high-throughput ingestion path:
// every writer handle offers batch variants — UpdateUint64Batch,
// UpdateStringBatch and UpdateBatch on Θ and HLL writers, UpdateBatch
// on quantiles writers — that hash and pre-filter the whole slice in
// one pass, amortise the framework's per-item bookkeeping, fill the
// local buffers with bulk copies, and allocate nothing in steady
// state (string hashing included). Batched uint64 ingestion runs at
// roughly twice the per-item throughput. Handoff semantics are
// unchanged: the relaxation bound r = 2·N·b and Flush/Close behave
// exactly as for per-item updates.
//
// On amd64 CPUs with AVX-512 (F and DQ), the uint64 batch hash and Θ
// pre-filter run in a vector kernel, eight values per step, with output
// bit-identical to the Go loop that runs everywhere else: 1.3–2.2 ns
// per item against the loop's 3.5–6.8, about 2.7× faster (4 096 values,
// 1 in 1 024 surviving, one core of a 2-vCPU AVX-512 Xeon whose speed
// varied between runs). Keyed tables and windows reach the same
// kernel: their writers hash a batch's uint64 values (and a table's
// uint64 keys) through it before any sketch sees them. The choice is
// made once at start-up from the CPU; there is no setting.
//
// # Quick start
//
//	c := fcds.NewConcurrentTheta(fcds.ConcurrentThetaConfig{
//		K: 4096, Writers: 4, MaxError: 0.04,
//	})
//	defer c.Close()
//	// each goroutine i uses its own handle:
//	w := c.Writer(i)
//	w.UpdateString("user-123")       // one item at a time, or
//	w.UpdateStringBatch(userBatch)   // a whole batch in one pass
//	// any goroutine, any time, wait-free:
//	estimate := c.Estimate()
//
// # Keyed tables
//
// Production workloads rarely track one stream: they track one small
// stream per key — unique users per tenant, latency per endpoint,
// cardinality per device — across millions of keys. The table types
// (ThetaTable, QuantilesTable, HLLTable, plus *U64 variants for
// uint64 keys) map keys to lightweight per-key concurrent sketches:
// sharded lazy creation, keyed batch ingestion that hashes, pre-filters
// and groups a batch by key and shard in one pass over its items,
// wait-free per-key queries with the full per-key r = 2·N·b
// guarantee, an all-keys rollup, TTL/size-cap eviction that spills
// evicted keys as serialized snapshots, and whole-table binary
// snapshots that merge across processes for distributed aggregation.
// All three are one keyed table written once against the sketch engine,
// as the paper's framework is written once against its sketch interface.
//
// Crucially, a table does not spawn one propagator goroutine per key:
// every per-key sketch attaches to one shared PropagatorPool (a fixed
// set of workers, GOMAXPROCS by default), so a million keys propagate
// on a handful of goroutines. A per-key (or per-epoch) sketch has one
// lifecycle for every family — writer slots made on first use, flush,
// query, compact, reset and close — and a family contributes only its
// sequential half: update by hash, merge a buffer, compact, filter
// hint, floor and estimate, plus the loop that filters a batch of
// hashes. A raw value becomes a hash in one kind of place, the writer
// of the composite that holds the sketch (a table's, a window's or a
// standalone sketch's): every live sketch takes hashes only.
//
// A Θ key's life is flat → concurrent, and the table picks the
// representation from the key's own update count. A key still in
// the eager phase (fewer than 2/e² updates; 508 at the default K=256)
// is flat: one mutex and one array of its distinct item hashes — no
// writer buffers, no pool attachment, every update visible to queries
// on return. The update that reaches the limit builds the concurrent
// sketch from that array. In a long-tailed key population most keys never leave the
// flat phase: on the benchmark's 100k-key zipf stream a live key costs
// ~510 B of heap (map slot, entry and sketch together) instead of
// ~1 850 B, and keyed ingest runs 1.6× faster. A concurrent key at
// K=256 with two writer slots holds ~5.4 KB, 4 KB of it the 2k-slot
// table of its samples. fcds_table_keys minus fcds_pool_sketches is the
// number of keys still flat.
//
// Propagation runs from one FIFO run queue shared by every pool
// worker: a sketch with handed-off buffers is queued once, the next
// idle worker merges at most N of its handoffs, and a sketch that got
// more meanwhile goes back to the tail, so no key starves another and
// a stalled worker strands nothing. PropagatorPool.Stats exposes the
// queue depth and per-worker run and wake counters.
//
// Keyed batch ingestion is two passes, and the first is where a hot
// table's time is won. The paper's writer asks shouldAdd(hint, u)
// before it buffers u (Algorithm 1 lines 24/26; §5.2 calls the filter
// instrumental for performance): a Θ sketch that has seen n ≫ k
// distinct items can still be changed by only a k/n fraction of what
// arrives, and an HLL sketch whose every register is at least ρ only by
// an item of rank above ρ — a 2^-ρ fraction. A table writer asks the
// same question before it does anything else with an item. Every Writer
// keeps a direct-mapped key→entry cache (2 048 slots of one cache line
// each); a slot holds the key, its entry, a shard-epoch stamp, the hint
// the key's sketch gave when it last took a run from this writer, and
// the key's group in the batch being staged. Pass 1 works in blocks of
// up to 256 items: it hashes a block's values into the family's hash
// space with one batch call, and a block's uint64 keys with another
// (string keys and string items one by one), then for each item finds
// the key's slot and drops the item there and then if it fails
// shouldAdd against the hint (a Θ hash not below Θ; an HLL hash whose
// rank is not above the lowest register) — no map, no lock, no sketch
// call; survivors are appended through the slot's group index, and only
// keys without a slot go through a per-batch map. Pass 2 resolves those keys under their
// shard's read lock, hands each key's surviving run to its sketch under
// the entry's liveness lock alone, and refreshes the slot's hint. A key
// whose run was dropped whole costs pass 2 nothing but its credit: it
// was updated, so TTL/LRU eviction sees it exactly as if the run had
// reached the sketch.
//
// Coherence is one epoch stamp per shard, bumped inside the critical
// section that removes a key from that shard's map (eviction, TTL
// expiry, Close). A slot is trusted, for filtering as for resolving,
// only after its stamp re-validates — once per key per batch, before
// the first drop: the batch's items were all handed over by then, so
// the dropped ones take effect at that instant, on an entry that is
// provably in the map and that has moved past any hint it ever gave
// only in the direction that filters more (Θ only falls, the lowest HLL
// register only rises), and change nothing. An evicted key is never
// filtered against, or resurrected through, a stale slot, and since a
// dropped item never occupies a buffer the per-key relaxation r = 2·N·b
// is untouched. Quantiles has no such filter (any sample can move a
// quantile); its writers use the cache to resolve and group only.
// Stats().Prefiltered, exported as fcds_table_prefiltered_items_total,
// counts the drops.
//
// Hot keys need no option of their own. A Θ or HLL hot key is disposed
// of by its writers' filter: on a 1 000-key zipf stream from two
// writers (BenchmarkFamilyHotKeys, 2 vCPUs, medians of 10 runs) a Θ
// table ingests 23.6 Mitems/s and an HLL table 17.9, their writers
// dropping 87 % and 66 % of the items in pass 1. Quantiles has no filter; a quantiles table
// whose hot keys need throughput sets QuantilesTableConfig.BufferSize:
// at 4·K the same stream runs at 3.3 Mitems/s against 1.9 at the
// default 2·K, and the per-key relaxation r = 2·N·b doubles with it.
// Stats().Promotions and Demotions always read 0.
//
//	t := fcds.NewThetaTable(fcds.ThetaTableConfig{
//		Table: fcds.TableConfig{Writers: 4, MaxKeys: 1_000_000},
//	})
//	defer t.Close()
//	w := t.Writer(i)
//	w.UpdateKeyedBatch(tenants, userIDs) // grouped, fused, bulk
//	estimate, ok := t.Estimate("tenant-42") // wait-free
//	total := t.Rollup().Estimate()          // all keys merged
//
// Standalone concurrent sketches can opt into a shared pool too, via
// the Pool field of their configs; Compact() on any concurrent sketch
// returns a serializable point-in-time snapshot.
//
// A table config whose parameter the table's own snapshots could not
// carry panics at construction: Θ K must be a power of two in [16,
// 2^26], quantiles K a power of two in [2, 2^15] (FCQS stores k in 16
// bits), HLL precision in [4, 18]. A captured snapshot's FCTB image
// (SNAPSHOT_PULL answers, checkpoint bodies, window ships) lists its
// entries in key order, numeric for uint64 keys and bytewise for string
// keys, so unchanged state encodes to the same bytes; SnapshotBinary
// streams them in walk order. Decoders accept any order.
//
// # Read-path cost model
//
// Whole-table reads — Snapshot, SnapshotAppend, and the
// checkpoint/snapshot-push paths built on them — cost O(keys), not
// O(updates). A snapshot compacts each live key (under the entry's
// read lock, a copy of the sketch's current state) and serializes it.
// A rollup builds no per-key compact: each key folds its live state
// into the accumulator. For a Θ key that means copying, under the lock
// a compaction would take, only the samples below the union's running
// Θ into one scratch reused from key to key, then inserting them after
// the lock is released. A Θ key whose smallest hash ever offered is
// already at or above that running Θ has nothing to copy and is not
// scanned at all. And a Θ rollup does not visit every key: each table
// shard keeps a floor, never above the smallest hash (or Θ) of any key
// it holds, lowered by the sketches themselves before the samples that
// lower it can be read. The rollup visits shards by ascending floor and
// skips, unread, every shard whose floor is at or above its running Θ,
// so it costs O(keys in shards whose floor is below that bound). On the
// benchmark's table_wide (~47.9 k keys over 1 024 shards, K=256, 2
// vCPUs) a two-worker rollup reads ~176 of the shards
// (BenchmarkTableRollup/wide: 113 → 23 ns per live key), and
// rollup_p50_ms fell 5.97 → 1.57 ms. Quantiles and HLL keys keep no floor, so their rollups read
// every shard that has held a key; their keys still compact and merge.
// A rollup allocates the same at a thousand keys as at ten thousand,
// and its bytes are those a union of per-key compacts gives: a Θ union
// depends on its inputs' sample sets and Θs, not on how they arrive.
// A Θ compaction is a copy, not a sort: a compact takes its samples as
// the sketch held them and is put in order by the first call that needs
// order (MarshalBinary, Hashes, ForEachHash — see ThetaCompact), so
// rollups and window reads, which only merge, never sort, and
// snapshots and checkpoints sort once, outside every sketch lock. With
// K=4096 sketches a per-key read is a few microseconds, so a million
// keys is seconds of work per pass if done serially. Reads never
// block ingestion — a writer takes a shard read lock only for keys its
// entry cache does not hold, and an entry's lock only for a run that
// survived its filter, so on a hot table most batches touch neither —
// but a long pass holds down cache and memory bandwidth.
//
// The read path therefore fans out, and walks the table one way for
// rollups and snapshots alike: a bounded worker set claims whole
// shards, copies each claimed shard's keys and entry pointers under
// its read lock, and does the per-key work after the lock is released.
// The per-worker partials then combine: aggregators merged pairwise
// (rollup, which also skips the shards that cannot change it) or
// serialization regions stitched behind one header (snapshot). The
// degree is TableConfig's
// ReadParallelism — 0 (the default) means GOMAXPROCS at call time, 1
// forces the serial path, and any other value caps the workers per
// pass. The caller's goroutine is always worker zero, so degree 1
// spawns nothing. Workers claim work in runs (about 64 per worker and
// pass), not one at a time: a claim per key moved the shared counter
// between cores on every key, and on the benchmark's table_wide shape
// (47 k keys, nearly all still flat, K=256, 2 vCPUs) two workers were
// then slower than one — ~290 ns/key against ~240 serial, ~110 with
// runs. Together with reading keys in place, that halved table_wide's
// rollup_p50_ms (21.3 → 10.6 ms). Leaving unscanned the keys with
// nothing to copy (97 % of table_wide's, 91 % of serve_ingest's)
// halved it again on the same 2 vCPUs: table_wide 13.9 → 6.9 ms,
// serve_ingest 6.7 → 2.6 ms; skipping whole shards by their floors
// then took table_wide to the 1.57 ms above. Below ~1k keys the fan-out constant
// (goroutine wake + pairwise merge) eats the win and serial is just as
// fast. No benchmark workload sweeps the degree yet, so these scaling
// figures are not re-checked by any gate.
//
// Operationally: size ReadParallelism so a full pass (the
// fcds_table_rollup_duration_seconds /
// fcds_table_snapshot_duration_seconds histograms below) completes
// comfortably inside the shortest period that triggers one — the
// -push-every snapshot interval, the -checkpoint-every durability
// interval, or a dashboard's scrape period. If p99 pass duration
// approaches that period, passes overlap: raise the degree, shard
// the table across processes, or lengthen the interval. A windowed
// table's reads are these same table reads over its per-key epoch
// rings (same fan-out).
//
// # Sliding windows
//
// Point-in-time sketches answer "uniques ever"; dashboards ask
// "uniques in the last N minutes". The windowed types answer that with
// an epoch ring: time is cut into Slots epochs of Width each, the
// active epoch has a live concurrent sketch, every sealed epoch is a
// compact, and a rotation (explicit Rotate, or an AutoRotate ticker)
// seals the active epoch and drops the one that fell off the ring —
// which is how sliding windows work over merge-only sketches: expired
// data leaves wholesale with its epoch, everything else merges.
//
//	w := fcds.NewWindowedTheta(fcds.WindowedThetaConfig{
//		Sketch: fcds.ConcurrentThetaConfig{K: 4096, Writers: 4},
//		Window: fcds.WindowConfig{Slots: 10, Width: time.Minute},
//	})
//	defer w.Close()
//	w.AutoRotate()
//	wr := w.Writer(i)               // one handle per goroutine, kept
//	wr.UpdateBatch(ids)             // hashed once, filtered per epoch
//	last10m := w.QueryWindow()      // uniques over the last ~10 minutes
//
// WindowedTheta/WindowedQuantiles/WindowedHLL window one stream: one
// ring. The windowed tables (NewWindowedThetaTable, ...) window per key
// across millions of keys: one keyed table whose per-key sketch is a
// ring, so its writer caches, key placement and flat keys outlive every
// rotation, and QueryWindow(key) is one map lookup plus at most one
// merge: the key's cached union of sealed epochs (built by the first
// read after a rotation) with its live epoch.
//
// A rotation flushes every writer slot before it seals an epoch, so
// sealed epochs are complete: a window query misses at most r = 2·N·b
// of the newest updates in all, all in the active epoch
// (RelaxationPerEpoch), and items leave the window in epoch-width
// steps (quantisation W). Rotate may be called at any time and as
// often as wanted, beside ingestion and reads. QueryWindowCached is a
// single atomic read (strictly wait-free) of the sealed epochs,
// refreshed once per rotation.
//
// A windowed table's TableConfig applies to the whole window: Keys()
// and MaxKeys count every key with data anywhere in the window, and
// OnEvict receives an evicted key's whole-window compact. A key leaves
// when its last epoch expires — the window's own TTL; a windowed table
// has no EvictExpired.
//
// # Network ingestion and snapshot shipping
//
// Everything above lives in one process; the ingest server moves it
// across machines. Serve starts a TCP endpoint that terminates keyed
// batches from the wire straight into a registered table's
// UpdateKeyedBatch path, and Dial returns a client whose ingest calls
// batch into a buffered writer with pipelined acknowledgements —
// errors surface at Flush, throughput is one syscall per burst.
//
//	srv, _ := fcds.Serve(":9700", fcds.IngestServerConfig{})
//	fcds.RegisterThetaTable(srv, "events", t) // srv owns t's writers
//	...
//	c, _ := fcds.Dial("edge-1:9700")
//	c.Ingest("events", tenants, userIDs) // async, batched
//	c.Flush()                            // wait + collect errors
//
// Every Register*Table call is one registration that reads the family
// from the table's engine: string items (not on quantiles), the hash
// seed pushed snapshots must share (Θ, HLL), and the wire value type.
// The server owns the table's writers, so it serves one name per table.
//
// The protocol is binary frames, each a fixed 8-byte header — payload
// length (uint32 LE), protocol version, frame type, a frame-flags
// byte and one reserved zero byte — followed by the payload:
//
//	frame               payload
//	HELLO               max/negotiated protocol version (1 byte)
//	KEYED_BATCH         table, key type, count, keys, 8-byte values
//	KEYED_STRING_BATCH  table, key type, count, keys, string items
//	SNAPSHOT_PUSH       table, source id, FCTB snapshot blob
//	SNAPSHOT_PULL       table → merged FCTB snapshot blob
//	WINDOW_SNAPSHOT     table, source id, epoch, FCTB snapshot blob
//	QUERY               table, key type, key → found, kind, compact
//	ROLLUP              table → kind, all-keys merged compact
//	HEALTH              (empty) → server counters + checkpoint age
//	OK / VALUE / ERR    responses (ERR: code + message)
//
// The first frame of a connection must be HELLO: the client offers its
// highest version, the server answers with the minimum of the two, and
// every later frame carries the negotiated version. Older clients may
// append a feature byte to HELLO; the server answers with a feature
// byte of 0, accepting none, so every frame's flags byte stays 0 and a
// nonzero one is a framing error. Each request frame receives
// exactly one response frame in request order (which is what makes
// client pipelining a FIFO, with no request ids on the wire). Failed
// requests are answered with an ERR frame carrying a numeric code and
// message, leaving the connection live, while framing and version
// violations close the connection. See internal/server/wire for the
// full layout.
//
// Every keyed frame, KEYED_BATCH or KEYED_STRING_BATCH with either key
// type, reaches the table writer's pass 1 a block at a time: the
// server splits the payload into its key run and its item run, then
// decodes the two in lockstep, 256 pairs per block, and stages each
// block through the same block stager an in-process batch goes
// through — no frame-sized slices. A string key is staged as a view of
// the connection's read buffer and copied only where the table keeps
// it: a key new to the batch and not resident in the writer's entry
// cache. A frame of warm keys allocates nothing.
//
// Snapshot shipping composes with the table snapshots above into the
// distributed-aggregation path: an edge node serves its tables,
// periodically pulls its own merged snapshot (or lets a pipeline pull
// it remotely) and pushes the FCTB blob to an aggregator node, which
// folds every received snapshot in with its own live keys — queries
// and rollups on the aggregator answer over the union. A push carries
// a source id that picks the fold: an empty id merges into a shared
// aggregate (one-shot and delta ships), a named id replaces that
// source's previous snapshot, which keeps periodic cumulative ships
// correct for every family — re-merging a quantiles snapshot each
// tick would re-count all of its samples. Windowed tables ship their
// sealed-epoch state with WINDOW_SNAPSHOT, which adds a per-source
// rotation epoch: the receiver applies a ship only when its epoch is
// >= the last applied one, so retries are idempotent and reordered
// stale windows never roll newer state back. cmd/fcds-serve wraps all
// of this in a binary (-push ships source-tagged snapshots upstream on
// a timer), and examples/distributed runs a two-node pipeline end to
// end.
//
// # Failure semantics
//
// The pipeline survives the two crash shapes a fan-in tree meets, with
// bounded, well-defined loss in each:
//
// Edge crash. An edge's in-memory tables die with it. Everything the
// edge shipped upstream before the crash survives: the aggregator
// deliberately retains a dead source's last snapshot (its replacement
// never arrives, so evicting it would silently drop that data from
// rollups). A restarted edge begins empty under a FRESH source id (the
// default host/pid id changes across restarts), so its new cumulative
// snapshots aggregate alongside the old retained one instead of
// replacing it. Lost: only updates the edge ingested after its last
// successful ship — at most one push interval's worth.
//
// Upstream outage. DialReliable returns a reconnecting client: ships
// enqueue into a bounded in-memory outbox that coalesces to the
// LATEST snapshot per (table, source) — exactly the server's replace
// semantics, so coalescing drops nothing a delivery would have kept —
// while the connection retries with exponential backoff + jitter.
// Replace semantics also make redelivery after an ambiguous
// mid-flight failure idempotent. The outbox holds one entry per
// (table, source) pair, bounded by ReliableIngestConfig.MaxOutbox
// (default 256 pairs): past the bound the oldest pair's pending ship
// is evicted and counted in Stats().Dropped, and the pair's next
// cumulative ship re-covers its data.
//
// Aggregator crash. An aggregator checkpoints every table's state —
// named-source snapshots plus the anonymous aggregate with the live
// table folded in — to per-table FCCK files (atomic rename, fsync'd,
// CRC-checked) via WriteCheckpoints, and recovers them on boot with
// RestoreCheckpoints before the port opens. Reconnecting pushers then
// simply replace their restored snapshots on the next ship. Lost: only
// direct wire ingest (KEYED_BATCH) and anonymous merges that arrived
// after the last checkpoint — at most one checkpoint interval's worth;
// per-source pushed state heals entirely on the pushers' next ships.
// The HEALTH frame reports the checkpoint's age so monitors can bound
// this staleness window; fcds-serve enables checkpointing with
// -checkpoint-dir. Checkpoints are generational: each pass writes a
// new per-table file rather than renaming over the last one, restore
// picks the newest valid generation per table and falls back to an
// older one when the newest is corrupt at rest, and retention
// (-checkpoint-retain) prunes generations past the configured count —
// never touching files it did not write. What a boot reads: a
// registered table's generations are told apart by file name and
// opened newest first, so an older generation is read and CRC-checked
// only when every newer one failed; within the file it restores, the
// aggregate and every source snapshot are decoded and admitted once,
// concurrently on GOMAXPROCS cores, then applied together (a bad blob
// still rejects the whole generation). A snapshot image decodes in one
// piece: the Θ compacts of one image share one samples array and one
// array of compact structs (three allocations per image instead of two
// per key), so a compact kept beyond its snapshot keeps the whole
// image's arrays alive — clone it (merge it into a fresh union) if
// only a few are kept. The aggregator follows that rule itself: a
// named source replaced whole keeps its image, and the anonymous
// aggregate and the demotion fold copy the compacts they adopt from an
// image they keep only part of.
//
// Journaled aggregator crash. With a journal attached (AttachJournal;
// fcds-serve's -journal), the aggregator write-ahead-logs every
// named-source snapshot push, window ship and eviction spill to
// CRC-framed records in append-only FCJL files BEFORE applying it, and
// fsyncs per -journal-fsync-every. Boot becomes restore-checkpoint-
// then-replay-journal-tail: every record above the restored
// checkpoint's LSN watermark re-applies exactly as the original frame
// did, records the checkpoint already covers are skipped by that
// watermark (merge-semantics records — eviction spills, anonymous
// pushes — would double-count without it) after their frame CRC and
// before their snapshot is decoded, so a boot decodes only the
// records it applies — at most GOMAXPROCS of them ahead of the one
// being applied, decoding concurrently, while records still apply one
// by one in LSN order — and a torn final record
// (the crash happened mid-write) fails its CRC and truncates cleanly —
// that push was never ACKed, so its Reliable shipper redelivers it.
// A boot also skips, unread, every journal file the next file's first
// record proves covered by every table's watermark. Each successful
// checkpoint pass rotates the journal and prunes files its watermarks
// cover. An oversized journal self-compacts by whole files: replace
// semantics make a source's older records dead weight once a newer
// one is durable, so a file holding only such records (and no eviction
// spill or anonymous push) is deleted without being read; only a
// journal still oversized after that is rewritten to the latest record
// per pushing source, under a temporary name until it is complete.
// Journaling also upgrades eviction: a TTL or
// max-keys evicted key's final compact is journaled and folded back
// into the remote aggregate instead of dropped, so eviction stops
// costing rollup data (fcds-serve evicts idle keys with -ttl).
// Each of the three events is one journal record, and one step applies
// a record wherever it comes from: a live frame or spill (journaled
// first), a replayed record (skipped at or below its table's
// watermark) or a restored checkpoint, whose aggregate is applied as
// an anonymous push and each of whose sources as a named push or, when
// it carries an epoch, a window ship — so the three paths cannot
// disagree about what an event does. Lost in a crash: only un-fsynced journal
// records — at most -journal-fsync-every minus one acknowledged
// pushes, plus any KEYED_BATCH wire ingest since the last checkpoint
// (direct keyed ingest is deliberately not journaled: per-item WAL
// writes would serialize the zero-allocation batch path; its loss
// stays bounded by the checkpoint interval).
//
// # Observability and operating fcds-serve
//
// Every subsystem exports its operational counters through a
// zero-dependency metrics registry (NewMetricsRegistry): pool workers
// (queue depth, runs, wake-ups), tables (keys, evictions by
// cause, writer-cache hit ratio, items dropped by the writer filter),
// windows (rotations, sealed rebuilds, expired epochs), the ingest
// server (per-table frames/items/bytes/errors, writer-pool waits and
// idle handles, per-source snapshot-push lag, checkpoint age and
// write duration) and
// the reliable shipper (outbox depth, coalesced ships, reconnect
// backoff). Registration is collector-style: series are func-backed
// reads of the subsystems' existing atomics, evaluated only at scrape
// time, so the instrumented ingest paths keep their zero-allocation
// budgets. One registry gathers everything and renders it three ways:
// MetricsHandler serves Prometheus text format 0.0.4 over HTTP,
// WriteValues dumps the same samples as log lines, and Values feeds
// programmatic consumers (the benchmark in benchmark/ reads its
// per-layer counters this way).
//
//	reg := fcds.NewMetricsRegistry()
//	fcds.RegisterPoolMetrics(reg, pool)
//	t.RegisterMetrics(reg, "events")       // any table or window
//	srv.RegisterMetrics(reg)               // ingest server + checkpoints
//	rel.RegisterMetrics(reg, "agg-1:9700") // each reliable shipper
//	http.Handle("/metrics", fcds.MetricsHandler(reg))
//
// fcds-serve wires all of this up behind one flag: -metrics-addr
// starts an ops HTTP listener serving /metrics (Prometheus text) and
// /healthz (the HEALTH counters as JSON, with an explicit
// has_checkpoint field so "never checkpointed" is distinguishable
// from "just checkpointed", plus the journal's size, record and
// replay counters when -journal is on). The metrics worth alerting on:
// fcds_server_checkpoint_age_seconds growing past -checkpoint-every
// (crash-loss window widening), fcds_server_snapshot_push_age_seconds
// per source (an edge stopped shipping), fcds_client_outbox_depth
// sustained above zero (this node cannot reach its upstream), and
// fcds_server_writer_pool_waits_total climbing (ingest frames found
// every writer handle busy and had to wait — raise -writers).
//
// Journal alerting is about the lag the fsync cadence buys:
// fcds_server_journal_unsynced_records sitting at the configured
// -journal-fsync-every minus one under steady traffic means every
// crash loses the maximum that setting allows — either accept that
// window or lower the setting; 1 (the default) makes it zero.
// fcds_server_journal_size_bytes growing without the sawtooth drops
// of rotation pruning means checkpoints are failing (each successful
// pass rotates and prunes), so the replay tail — and recovery time —
// grows unboundedly; pair it with
// fcds_server_journal_replay_age_seconds after restarts, which
// reports how far behind the restored checkpoint the journal had to
// carry the node (persistently large values mean the checkpoint
// cadence, not the journal, is the durability bottleneck).
// fcds_server_journal_replayed_records after any unplanned restart is
// the recovery actually exercised: zero after a known-dirty crash
// means the journal was not doing its job (wrong -journal directory,
// or records were never fsynced).
//
// The read path exports duration histograms, one per table
// (fcds_table_rollup_duration_seconds,
// fcds_table_snapshot_duration_seconds) and one for the whole
// checkpoint pass (fcds_server_checkpoint_duration_seconds, which
// replaces the old fcds_server_checkpoint_write_seconds gauge).
// Alerting thresholds follow the cost model above: alert when a
// table's p99 snapshot duration exceeds half of -push-every (pushes
// are starting to overlap their interval), when p99 checkpoint
// duration exceeds half of -checkpoint-every (the durability window
// has stopped shrinking — raise ReadParallelism or the interval), and
// on any rollup p99 above the slowest dashboard's timeout. A sudden
// shift of an otherwise-stable histogram toward higher buckets with a
// flat key count means the per-key work got more expensive
// (estimation-mode transitions), not more keys.
// fcds_table_prefiltered_items_total over the table's ingested items
// is the share of a Θ or HLL table's traffic its writers dropped in
// pass 1. On a Θ table whose keys are far above K it should sit near 1 − k/n per
// key (above 0.9 on the benchmark's 1 000-key zipf stream); a low
// ratio there, with fcds_table_writer_cache_hits_total low against
// fcds_table_shard_lookups_total, means the live hot keys outnumber a
// writer's 2 048 cache slots (or keep being evicted and recreated), so
// their items take the unfiltered path — shard lock, entry lock, sketch
// call — only to be discarded by the sketch. A low ratio with a high
// hit rate is not a fault: the keys are still below K (flat or in exact
// mode), where every distinct item counts.
// -stats-every logs the same registry through WriteValues, so the log
// dump and the scrape endpoint can never disagree.
//
// Connections and writers are decoupled: ingest frames check a writer
// handle out of a per-table pool for exactly one batch, so any number
// of connections share -writers handles and a burst of conns greater
// than -writers queues briefly instead of serialising whole
// connections. Size -writers to the peak number of batches you want
// decoded concurrently per table (pool waits tell you when it is too
// low; fcds_server_writer_pool_idle sitting at -writers means it is
// more than enough).
//
// Sequential sketches (theta KMV/QuickSelect with set operations,
// quantiles, HLL) and the lock-based baseline used in the paper's
// evaluation are exposed as well. The cmd/fcds-bench binary
// regenerates every table and figure of the paper's Section 7 and the
// Section 6 error analysis; the system built around the sketches
// (tables, windows, wire, journal) is measured by the benchmark in
// benchmark/ and nowhere else.
package fcds

import (
	"net/http"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hll"
	"github.com/fcds/fcds/internal/lockbased"
	"github.com/fcds/fcds/internal/metrics"
	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
	"github.com/fcds/fcds/internal/window"
)

// Θ sketch (unique counting).
type (
	// ConcurrentTheta is the paper's concurrent Θ sketch: N writers,
	// background propagation, wait-free estimates.
	ConcurrentTheta = theta.Concurrent
	// ConcurrentThetaConfig configures a ConcurrentTheta; the zero
	// value uses the paper's evaluation defaults (k=4096, e=0.04).
	ConcurrentThetaConfig = theta.ConcurrentConfig
	// ThetaWriter is a single-goroutine update handle.
	ThetaWriter = theta.ConcurrentWriter
	// ThetaKMV is the sequential KMV Θ sketch (the paper's
	// Algorithm 1).
	ThetaKMV = theta.KMV
	// ThetaQuickSelect is the sequential QuickSelect Θ sketch (the
	// HeapQuickSelectSketch family used in the evaluation).
	ThetaQuickSelect = theta.QuickSelect
	// ThetaCompact is an immutable Θ sketch snapshot with confidence
	// bounds and binary serialization. Its samples are ordered on
	// demand: estimates, bounds and merges (ThetaUnion.Add) read them
	// as collected; MarshalBinary, Hashes and ForEachHash sort them
	// once, the first time any of them runs, after which unions of the
	// compact stop early at their running Θ. All of it is safe from any
	// number of goroutines sharing one compact.
	ThetaCompact = theta.Compact
	// ThetaUnion merges Θ sketches (mergeability, §3).
	ThetaUnion = theta.Union
	// ThetaIntersection intersects Θ sketches.
	ThetaIntersection = theta.Intersection
	// LockedTheta is the lock-protected baseline of the evaluation.
	LockedTheta = lockbased.Theta
)

// Quantiles sketch.
type (
	// ConcurrentQuantiles is the concurrent Quantiles sketch.
	ConcurrentQuantiles = quantiles.Concurrent
	// ConcurrentQuantilesConfig configures a ConcurrentQuantiles.
	ConcurrentQuantilesConfig = quantiles.ConcurrentConfig
	// QuantilesWriter is a single-goroutine update handle.
	QuantilesWriter = quantiles.ConcurrentWriter
	// QuantilesSketch is the sequential mergeable quantiles sketch.
	QuantilesSketch = quantiles.Sketch
	// QuantilesSnapshot is an immutable queryable snapshot.
	QuantilesSnapshot = quantiles.Snapshot
	// LockedQuantiles is the lock-protected baseline.
	LockedQuantiles = lockbased.Quantiles
)

// HyperLogLog sketch.
type (
	// ConcurrentHLL is the concurrent HyperLogLog sketch.
	ConcurrentHLL = hll.Concurrent
	// ConcurrentHLLConfig configures a ConcurrentHLL.
	ConcurrentHLLConfig = hll.ConcurrentConfig
	// HLLWriter is a single-goroutine update handle.
	HLLWriter = hll.ConcurrentWriter
	// HLLSketch is the sequential HLL sketch.
	HLLSketch = hll.Sketch
)

// Propagation executor.
type (
	// PropagatorPool is a fixed pool of propagator goroutines shared
	// by any number of concurrent sketches and tables, fed from one
	// FIFO run queue; Stats exposes the queue depth and per-worker
	// run and wake counters.
	PropagatorPool = core.PropagatorPool
	// PoolWorkerStats is one propagator worker's scheduling counters
	// (see PropagatorPool.Stats); its Stolen field always reads 0.
	PoolWorkerStats = core.WorkerStats
)

// Keyed sketch tables: one lightweight concurrent sketch per key, all
// propagated by one shared pool. The plain types use string keys, the
// U64 variants uint64 keys.
type (
	// TableConfig is the sketch-independent table configuration for
	// string-keyed tables (writers, shards, pool, eviction policy,
	// read fan-out).
	TableConfig = table.Config[string]
	// TableU64Config is TableConfig for uint64-keyed tables.
	TableU64Config = table.Config[uint64]

	// ThetaTable maps string keys to concurrent Θ sketches (per-key
	// unique counting).
	ThetaTable = table.ThetaTable[string]
	// ThetaTableU64 is ThetaTable with uint64 keys.
	ThetaTableU64 = table.ThetaTable[uint64]
	// ThetaTableConfig configures a string-keyed Θ table.
	ThetaTableConfig = table.ThetaConfig[string]
	// ThetaTableU64Config configures a uint64-keyed Θ table.
	ThetaTableU64Config = table.ThetaConfig[uint64]
	// ThetaTableWriter is a single-goroutine keyed ingestion handle.
	ThetaTableWriter = table.ThetaTableWriter[string]
	// ThetaTableSnapshot is a mergeable serialized-table capture.
	ThetaTableSnapshot = table.TableSnapshot[string, *theta.Compact]
	// ThetaTableU64Snapshot is ThetaTableSnapshot with uint64 keys.
	ThetaTableU64Snapshot = table.TableSnapshot[uint64, *theta.Compact]

	// QuantilesTable maps string keys to concurrent quantiles sketches
	// (per-key distributions).
	QuantilesTable = table.QuantilesTable[string]
	// QuantilesTableU64 is QuantilesTable with uint64 keys.
	QuantilesTableU64 = table.QuantilesTable[uint64]
	// QuantilesTableConfig configures a string-keyed quantiles table.
	QuantilesTableConfig = table.QuantilesConfig[string]
	// QuantilesTableU64Config configures a uint64-keyed quantiles
	// table.
	QuantilesTableU64Config = table.QuantilesConfig[uint64]
	// QuantilesTableWriter is a single-goroutine keyed ingestion
	// handle.
	QuantilesTableWriter = table.QuantilesTableWriter[string]
	// QuantilesTableSnapshot is a mergeable serialized-table capture.
	QuantilesTableSnapshot = table.TableSnapshot[string, *quantiles.Sketch]
	// QuantilesTableU64Snapshot is QuantilesTableSnapshot with uint64
	// keys.
	QuantilesTableU64Snapshot = table.TableSnapshot[uint64, *quantiles.Sketch]

	// HLLTable maps string keys to concurrent HLL sketches (per-key
	// unique counting in fixed tiny per-key memory).
	HLLTable = table.HLLTable[string]
	// HLLTableU64 is HLLTable with uint64 keys.
	HLLTableU64 = table.HLLTable[uint64]
	// HLLTableConfig configures a string-keyed HLL table.
	HLLTableConfig = table.HLLConfig[string]
	// HLLTableU64Config configures a uint64-keyed HLL table.
	HLLTableU64Config = table.HLLConfig[uint64]
	// HLLTableWriter is a single-goroutine keyed ingestion handle.
	HLLTableWriter = table.HLLTableWriter[string]
	// HLLTableSnapshot is a mergeable serialized-table capture.
	HLLTableSnapshot = table.TableSnapshot[string, *hll.Sketch]
	// HLLTableU64Snapshot is HLLTableSnapshot with uint64 keys.
	HLLTableU64Snapshot = table.TableSnapshot[uint64, *hll.Sketch]
)

// Sliding-window sketches: epoch rings of concurrent sketches (see the
// package documentation's "Sliding windows" section for semantics and
// error bounds).
type (
	// WindowConfig configures an epoch ring: Slots epochs of Width each,
	// optionally on a shared Pool.
	WindowConfig = window.Config

	// WindowedTheta windows one Θ stream: uniques over the last
	// Slots·Width.
	WindowedTheta = window.Windowed[uint64, float64, *theta.Compact]
	// WindowedQuantiles windows one quantiles stream: distributions
	// over the last Slots·Width.
	WindowedQuantiles = window.Windowed[float64, *quantiles.Snapshot, *quantiles.Sketch]
	// WindowedHLL windows one HLL stream in fixed memory per epoch.
	WindowedHLL = window.Windowed[uint64, float64, *hll.Sketch]

	// WindowedThetaTable windows a string-keyed Θ table: per-key uniques
	// over the last Slots·Width.
	WindowedThetaTable = window.Table[string, uint64, float64, *theta.Compact]
	// WindowedThetaTableU64 is WindowedThetaTable with uint64 keys.
	WindowedThetaTableU64 = window.Table[uint64, uint64, float64, *theta.Compact]
	// WindowedQuantilesTable windows a string-keyed quantiles table.
	WindowedQuantilesTable = window.Table[string, float64, *quantiles.Snapshot, *quantiles.Sketch]
	// WindowedHLLTable windows a string-keyed HLL table.
	WindowedHLLTable = window.Table[string, uint64, float64, *hll.Sketch]
)

// WindowedThetaConfig configures a standalone windowed Θ sketch. The
// window's propagation executor is Window.Pool; as a convenience,
// Sketch.Pool is promoted to Window.Pool when only the former is set
// (the per-epoch sketches always run on the window's executor).
type WindowedThetaConfig struct {
	// Sketch configures each epoch's concurrent Θ sketch.
	Sketch ConcurrentThetaConfig
	// Window configures the epoch ring.
	Window WindowConfig
}

// WindowedQuantilesConfig configures a standalone windowed quantiles
// sketch; see WindowedThetaConfig for the Pool convention.
type WindowedQuantilesConfig struct {
	// Sketch configures each epoch's concurrent quantiles sketch.
	Sketch ConcurrentQuantilesConfig
	// Window configures the epoch ring.
	Window WindowConfig
}

// WindowedHLLConfig configures a standalone windowed HLL sketch; see
// WindowedThetaConfig for the Pool convention.
type WindowedHLLConfig struct {
	// Sketch configures each epoch's concurrent HLL sketch.
	Sketch ConcurrentHLLConfig
	// Window configures the epoch ring.
	Window WindowConfig
}

// NewWindowedTheta builds an epoch-ring windowed Θ sketch; Close it
// when done.
func NewWindowedTheta(cfg WindowedThetaConfig) *WindowedTheta {
	if cfg.Window.Pool == nil {
		cfg.Window.Pool = cfg.Sketch.Pool
	}
	return window.New[uint64, float64, *theta.Compact](theta.NewEngine(cfg.Sketch), cfg.Window)
}

// NewWindowedQuantiles builds an epoch-ring windowed quantiles sketch;
// Close it when done.
func NewWindowedQuantiles(cfg WindowedQuantilesConfig) *WindowedQuantiles {
	if cfg.Window.Pool == nil {
		cfg.Window.Pool = cfg.Sketch.Pool
	}
	return window.New[float64, *quantiles.Snapshot, *quantiles.Sketch](quantiles.NewEngine(cfg.Sketch), cfg.Window)
}

// NewWindowedHLL builds an epoch-ring windowed HLL sketch; Close it
// when done.
func NewWindowedHLL(cfg WindowedHLLConfig) *WindowedHLL {
	if cfg.Window.Pool == nil {
		cfg.Window.Pool = cfg.Sketch.Pool
	}
	return window.New[uint64, float64, *hll.Sketch](hll.NewEngine(cfg.Sketch), cfg.Window)
}

// NewWindowedThetaTable builds a sliding-window string-keyed Θ table;
// Close it when done.
func NewWindowedThetaTable(tableCfg ThetaTableConfig, windowCfg WindowConfig) *WindowedThetaTable {
	tcfg, eng := tableCfg.Engine()
	return window.NewTable[string, uint64, float64, *theta.Compact](tcfg, eng, windowCfg)
}

// NewWindowedThetaTableU64 builds a sliding-window uint64-keyed Θ
// table; Close it when done.
func NewWindowedThetaTableU64(tableCfg ThetaTableU64Config, windowCfg WindowConfig) *WindowedThetaTableU64 {
	tcfg, eng := tableCfg.Engine()
	return window.NewTable[uint64, uint64, float64, *theta.Compact](tcfg, eng, windowCfg)
}

// NewWindowedQuantilesTable builds a sliding-window string-keyed
// quantiles table; Close it when done.
func NewWindowedQuantilesTable(tableCfg QuantilesTableConfig, windowCfg WindowConfig) *WindowedQuantilesTable {
	tcfg, eng := tableCfg.Engine()
	return window.NewTable[string, float64, *quantiles.Snapshot, *quantiles.Sketch](tcfg, eng, windowCfg)
}

// NewWindowedHLLTable builds a sliding-window string-keyed HLL table;
// Close it when done.
func NewWindowedHLLTable(tableCfg HLLTableConfig, windowCfg WindowConfig) *WindowedHLLTable {
	tcfg, eng := tableCfg.Engine()
	return window.NewTable[string, uint64, float64, *hll.Sketch](tcfg, eng, windowCfg)
}

// Network ingestion: the wire server and client (see the package
// documentation's "Network ingestion and snapshot shipping" section
// for the protocol).
type (
	// IngestServer is a TCP endpoint terminating the keyed-batch wire
	// protocol into registered tables, with snapshot push/pull for
	// distributed aggregation. Register tables, then Serve; Close
	// drains in-flight frames.
	IngestServer = server.Server
	// IngestServerConfig configures an IngestServer; the zero value is
	// usable.
	IngestServerConfig = server.Config
	// IngestServerStats is the server's counter snapshot.
	IngestServerStats = server.Stats
	// IngestClient is one client connection: asynchronous batched
	// ingest calls (errors surface at Flush) and synchronous
	// query/snapshot calls.
	IngestClient = client.Client
	// IngestHealth is the server health report (the HEALTH frame).
	IngestHealth = client.Health
	// IngestServerError is a request failure the server reported
	// through an error frame.
	IngestServerError = client.ServerError
	// ReliableIngestClient is a reconnecting snapshot shipper:
	// exponential backoff + jitter, connection-state callbacks, and a
	// bounded outbox that coalesces to the latest snapshot per
	// (table, source) while the upstream is down. See the package
	// documentation's "Failure semantics" section.
	ReliableIngestClient = client.Reliable
	// ReliableIngestConfig configures a ReliableIngestClient.
	ReliableIngestConfig = client.ReliableConfig
	// ReliableIngestStats is a ReliableIngestClient counter snapshot.
	ReliableIngestStats = client.ReliableStats
	// IngestConnState is a reliable connection's lifecycle state.
	IngestConnState = client.ConnState
	// IngestCheckpointStats reports one checkpoint write/restore pass.
	IngestCheckpointStats = server.CheckpointStats
	// IngestJournal is the append-only durability journal an
	// IngestServer can write between checkpoints: named-source pushes,
	// window ships and eviction spills are logged, one record each,
	// before they mutate in-memory state, and boot replays the tail on
	// top of restored checkpoints through the step that applied them
	// live. AppendPush journals a push directly (without a server).
	// See the package documentation's "Failure semantics" section for
	// the recovery model.
	IngestJournal = server.Journal
	// IngestJournalConfig configures an IngestJournal (fsync cadence,
	// self-compaction threshold, retention).
	IngestJournalConfig = server.JournalConfig
	// IngestJournalStats is an IngestJournal counter snapshot.
	IngestJournalStats = server.JournalStats
	// IngestJournalReplayStats reports one boot replay pass.
	IngestJournalReplayStats = server.JournalReplayStats
)

// Reliable connection lifecycle states (IngestConnState).
const (
	IngestDisconnected = client.StateDisconnected
	IngestConnecting   = client.StateConnecting
	IngestConnected    = client.StateConnected
	IngestClosed       = client.StateClosed
)

// NewIngestServer returns an idle ingest server: register tables,
// then Start it (or Serve a listener). Registering before the
// listener opens means the first connections can never race
// registration and see unknown-table errors.
func NewIngestServer(cfg IngestServerConfig) *IngestServer { return server.New(cfg) }

// OpenIngestJournal opens (creating if needed) the durability journal
// in dir and starts a fresh journal file. Boot order matters: call
// RestoreCheckpoints, then ReplayJournal, then OpenIngestJournal +
// AttachJournal, then Start — replay must read the previous process's
// files before this call starts a new one.
func OpenIngestJournal(dir string, cfg IngestJournalConfig) (*IngestJournal, error) {
	return server.OpenJournal(dir, cfg)
}

// Serve starts an ingest server listening on addr, accepting in the
// background, and returns it; register tables before clients connect
// (or use NewIngestServer + Start to register before the port opens).
// Close the server (it drains in-flight frames) before closing the
// registered tables.
func Serve(addr string, cfg IngestServerConfig) (*IngestServer, error) {
	s := server.New(cfg)
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	return s, nil
}

// IngestDialOption configures a dialed IngestClient (Dial,
// DialTimeout).
type IngestDialOption = client.Option

// Dial connects to an ingest server and negotiates the protocol
// version; Close the client when done.
func Dial(addr string, opts ...IngestDialOption) (*IngestClient, error) {
	return client.Dial(addr, opts...)
}

// DialTimeout is Dial with an establishment bound: the TCP connect and
// the HELLO exchange each must complete within d, so a black-holed
// upstream fails fast instead of hanging the caller. The bound lifts
// once the connection is established.
func DialTimeout(addr string, d time.Duration, opts ...IngestDialOption) (*IngestClient, error) {
	return client.Dial(addr, append(opts, client.WithDialTimeout(d))...)
}

// DialReliable returns a reconnecting snapshot shipper bound to addr:
// Ship* calls enqueue and return immediately, a background goroutine
// dials (bounded by dialTimeout when > 0), delivers, and on failure
// retries with exponential backoff + jitter while the outbox coalesces
// to the latest snapshot per (table, source). Fan-out replication runs
// one ReliableIngestClient per upstream — their reconnect loops are
// independent, so a dead upstream cannot stall a healthy one. Drain
// flushes before shutdown; Close discards what is still queued.
func DialReliable(addr string, cfg ReliableIngestConfig, dialTimeout time.Duration) (*ReliableIngestClient, error) {
	var opts []client.Option
	if dialTimeout > 0 {
		opts = append(opts, client.WithDialTimeout(dialTimeout))
	}
	return client.DialReliable(addr, cfg, opts...)
}

// RegisterThetaTable serves a string-keyed Θ table under name. The
// server becomes the table's sole writer (it owns every writer
// handle); local queries, rollups and snapshots remain safe.
func RegisterThetaTable(s *IngestServer, name string, t *ThetaTable) error {
	return server.Register(s, name, t.Table)
}

// RegisterThetaTableU64 serves a uint64-keyed Θ table under name; see
// RegisterThetaTable for the writer-ownership contract.
func RegisterThetaTableU64(s *IngestServer, name string, t *ThetaTableU64) error {
	return server.Register(s, name, t.Table)
}

// RegisterQuantilesTable serves a string-keyed quantiles table under
// name; see RegisterThetaTable for the writer-ownership contract.
func RegisterQuantilesTable(s *IngestServer, name string, t *QuantilesTable) error {
	return server.Register(s, name, t.Table)
}

// RegisterQuantilesTableU64 serves a uint64-keyed quantiles table
// under name.
func RegisterQuantilesTableU64(s *IngestServer, name string, t *QuantilesTableU64) error {
	return server.Register(s, name, t.Table)
}

// RegisterHLLTable serves a string-keyed HLL table under name; see
// RegisterThetaTable for the writer-ownership contract.
func RegisterHLLTable(s *IngestServer, name string, t *HLLTable) error {
	return server.Register(s, name, t.Table)
}

// RegisterHLLTableU64 serves a uint64-keyed HLL table under name.
func RegisterHLLTableU64(s *IngestServer, name string, t *HLLTableU64) error {
	return server.Register(s, name, t.Table)
}

// Observability: the metrics registry and its renderers (see the
// package documentation's "Observability and operating fcds-serve"
// section). Subsystems register through their own methods — Table
// RegisterMetrics, windowed RegisterMetrics, IngestServer
// RegisterMetrics, ReliableIngestClient RegisterMetrics — plus
// RegisterPoolMetrics for a shared PropagatorPool; every series is
// read at scrape time, off the ingest hot paths.
type (
	// MetricsRegistry is a lock-cheap registry of counters, gauges,
	// histograms and func-backed series with Prometheus text
	// exposition (WritePrometheus), log-dump rendering (WriteValues)
	// and programmatic access (Values).
	MetricsRegistry = metrics.Registry
	// MetricsFamily is one gathered metric family: name, help, kind
	// and current samples.
	MetricsFamily = metrics.Family
	// MetricsSample is one gathered series value.
	MetricsSample = metrics.Sample
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MetricsHandler returns an http.Handler exposing the registry in
// Prometheus text format (mount it at /metrics).
func MetricsHandler(reg *MetricsRegistry) http.Handler { return metrics.Handler(reg) }

// RegisterPoolMetrics exports a PropagatorPool's scheduling counters
// (workers, attached sketches, parked workers, run-queue depth, and
// per-worker runs and wake-ups) into reg.
func RegisterPoolMetrics(reg *MetricsRegistry, p *PropagatorPool) {
	core.RegisterPoolMetrics(reg, p)
}

// NewPropagatorPool starts a shared propagation executor with the
// given worker count (<= 0 means GOMAXPROCS). Close it after every
// sketch and table attached to it.
func NewPropagatorPool(workers int) *PropagatorPool { return core.NewPropagatorPool(workers) }

// NewThetaTable builds a string-keyed Θ table; Close it when done.
func NewThetaTable(cfg ThetaTableConfig) *ThetaTable { return table.NewTheta(cfg) }

// NewThetaTableU64 builds a uint64-keyed Θ table; Close it when done.
func NewThetaTableU64(cfg ThetaTableU64Config) *ThetaTableU64 { return table.NewTheta(cfg) }

// NewQuantilesTable builds a string-keyed quantiles table; Close it
// when done.
func NewQuantilesTable(cfg QuantilesTableConfig) *QuantilesTable { return table.NewQuantiles(cfg) }

// NewQuantilesTableU64 builds a uint64-keyed quantiles table; Close it
// when done.
func NewQuantilesTableU64(cfg QuantilesTableU64Config) *QuantilesTableU64 {
	return table.NewQuantiles(cfg)
}

// NewHLLTable builds a string-keyed HLL table; Close it when done.
func NewHLLTable(cfg HLLTableConfig) *HLLTable { return table.NewHLL(cfg) }

// NewHLLTableU64 builds a uint64-keyed HLL table; Close it when done.
func NewHLLTableU64(cfg HLLTableU64Config) *HLLTableU64 { return table.NewHLL(cfg) }

// UnmarshalThetaTableSnapshot parses a serialized string-keyed Θ table
// snapshot (see ThetaTable.SnapshotBinary). Its compacts share their
// arrays: one kept beyond the snapshot keeps all of them alive.
func UnmarshalThetaTableSnapshot(data []byte) (*ThetaTableSnapshot, error) {
	return table.UnmarshalThetaSnapshot[string](data)
}

// UnmarshalThetaTableU64Snapshot parses a serialized uint64-keyed Θ
// table snapshot.
func UnmarshalThetaTableU64Snapshot(data []byte) (*ThetaTableU64Snapshot, error) {
	return table.UnmarshalThetaSnapshot[uint64](data)
}

// UnmarshalQuantilesTableSnapshot parses a serialized string-keyed
// quantiles table snapshot.
func UnmarshalQuantilesTableSnapshot(data []byte) (*QuantilesTableSnapshot, error) {
	return table.UnmarshalQuantilesSnapshot[string](data)
}

// UnmarshalQuantilesTableU64Snapshot parses a serialized uint64-keyed
// quantiles table snapshot.
func UnmarshalQuantilesTableU64Snapshot(data []byte) (*QuantilesTableU64Snapshot, error) {
	return table.UnmarshalQuantilesSnapshot[uint64](data)
}

// UnmarshalHLLTableSnapshot parses a serialized string-keyed HLL table
// snapshot.
func UnmarshalHLLTableSnapshot(data []byte) (*HLLTableSnapshot, error) {
	return table.UnmarshalHLLSnapshot[string](data)
}

// UnmarshalHLLTableU64Snapshot parses a serialized uint64-keyed HLL
// table snapshot.
func UnmarshalHLLTableU64Snapshot(data []byte) (*HLLTableU64Snapshot, error) {
	return table.UnmarshalHLLSnapshot[uint64](data)
}

// NewConcurrentTheta builds a concurrent Θ sketch; Close it when done.
func NewConcurrentTheta(cfg ConcurrentThetaConfig) *ConcurrentTheta {
	return theta.NewConcurrent(cfg)
}

// NewConcurrentQuantiles builds a concurrent Quantiles sketch; Close it
// when done.
func NewConcurrentQuantiles(cfg ConcurrentQuantilesConfig) *ConcurrentQuantiles {
	return quantiles.NewConcurrent(cfg)
}

// NewConcurrentHLL builds a concurrent HLL sketch; Close it when done.
func NewConcurrentHLL(cfg ConcurrentHLLConfig) *ConcurrentHLL {
	return hll.NewConcurrent(cfg)
}

// NewThetaKMV returns a sequential KMV Θ sketch with capacity k.
func NewThetaKMV(k int) *ThetaKMV { return theta.NewKMV(k) }

// NewThetaQuickSelect returns a sequential QuickSelect Θ sketch with
// nominal entry count k (a power of two).
func NewThetaQuickSelect(k int) *ThetaQuickSelect { return theta.NewQuickSelect(k) }

// NewThetaUnion returns an empty Θ union with nominal entry count k.
func NewThetaUnion(k int) *ThetaUnion { return theta.NewUnion(k) }

// NewThetaIntersection returns an empty Θ intersection.
func NewThetaIntersection() *ThetaIntersection { return theta.NewIntersection() }

// UnmarshalThetaCompact parses a serialized compact Θ sketch.
func UnmarshalThetaCompact(data []byte) (*ThetaCompact, error) {
	return theta.UnmarshalCompact(data)
}

// ThetaAnotB returns a compact sketch of the set difference A \ B.
func ThetaAnotB(a, b theta.Sketch) (*ThetaCompact, error) { return theta.AnotB(a, b) }

// ThetaJaccard estimates the Jaccard similarity of two Θ sketches.
func ThetaJaccard(a, b theta.Sketch, k int) (float64, error) {
	return theta.JaccardEstimate(a, b, k)
}

// NewQuantilesSketch returns a sequential quantiles sketch with
// parameter k (a power of two; 128 gives ~1.7% rank error).
func NewQuantilesSketch(k int) *QuantilesSketch { return quantiles.New(k) }

// NewHLLSketch returns a sequential HLL sketch with precision p
// (2^p registers).
func NewHLLSketch(p uint8) *HLLSketch { return hll.New(p) }

// NewLockedTheta returns the lock-protected baseline Θ sketch.
func NewLockedTheta(k int) *LockedTheta { return lockbased.NewTheta(k) }

// NewLockedQuantiles returns the lock-protected baseline quantiles
// sketch.
func NewLockedQuantiles(k int) *LockedQuantiles { return lockbased.NewQuantiles(k) }

// QuantilesRankError returns the a-priori rank error ε for parameter k.
func QuantilesRankError(k int) float64 { return quantiles.NormalizedRankError(k) }

// UnmarshalQuantiles parses a quantiles sketch serialized with
// QuantilesSketch.MarshalBinary.
func UnmarshalQuantiles(data []byte) (*QuantilesSketch, error) {
	return quantiles.Unmarshal(data)
}

// UnmarshalHLL parses an HLL sketch serialized with
// HLLSketch.MarshalBinary.
func UnmarshalHLL(data []byte) (*HLLSketch, error) { return hll.Unmarshal(data) }
