package table

import (
	"fmt"
	"strings"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
)

// writerCacheSize is the per-writer direct-mapped entry-cache size (a
// power of two). A key without a slot is neither grouped nor filtered
// through the cache, and on a hot table that is most of what a batch
// costs. Measured with BenchmarkTableHotKeys (the benchmark's table_hot
// shape: 1 000 zipf(1.2) keys, 2 048-item batches of ~350 distinct
// keys, 100 passes): 512 slots leave 150 of a batch's keys to the shard
// map and pass 1 drops 89 % of all items; 2 048 slots leave 52 and drop
// 95 %; 4 096 leave 31 (96 %) and 8 192 leave 15 (97 %), each doubling
// past 2 048 worth a few percent of throughput. 2 048 slots of 64 B
// (uint64 keys) are 128 KB per writer handle; pass 1's block arrays
// (stageBlock) add 4 KB.
const writerCacheSize = 2048

// stageBlock is the most items pass 1 hashes at once: a block's uint64
// keys are hashed by one hash.AppendSumUint64 call and its raw values
// by one core.Engine AppendHashValues call, into the writer's block
// arrays, and the block is then grouped and filtered item by item.
// 256 items keep both arrays at 2 KB; a batch-sized scratch instead
// would grow every handle with its largest batch. The server decodes a
// keyed frame in blocks of the same size.
const stageBlock = 256

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
//
// Every batch entry point, the staging pair BatchAddRun/BatchAddHashed
// included, reaches pass 1 through one block stager (stageBlock). The
// staging pair takes borrowed keys, and the writer owns the rule that
// a key it keeps must be owned: group copies it where it is first kept.
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

	// kh and vh are pass 1's block arrays: the key hashes and the staged
	// values of at most stageBlock items.
	kh [stageBlock]uint64
	vh [stageBlock]V
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
	if t.ages {
		e.touched.Store(t.now())
	}
	e.mu.RUnlock()
	if created {
		t.maybeEvictCap(si)
	}
}

// UpdateKeyedBatch processes parallel slices of keys and values: each
// value is hashed into the family's space and staged under its key
// (dropped at once if the key's cached hint rules it out), the distinct
// keys are grouped by shard so each shard lock is taken at most once,
// and each key's surviving run enters its sketch through the pre-hashed
// batch path. Slices must have equal length. It is BatchAddRun and
// BatchCommit in one call.
func (w *Writer[K, V, S, C]) UpdateKeyedBatch(keys []K, vals []V) {
	checkRun("UpdateKeyedBatch", len(keys), len(vals), "values")
	if len(keys) == 0 {
		return
	}
	w.stageRun(keys, vals, true, false)
	w.apply()
}

// UpdateKeyedHashedBatch is UpdateKeyedBatch for values that are
// already item hashes in the sketch family's hash space (the engine's
// HashValue or its string twin).
func (w *Writer[K, V, S, C]) UpdateKeyedHashedBatch(keys []K, hs []V) {
	checkRun("UpdateKeyedHashedBatch", len(keys), len(hs), "hashes")
	if len(keys) == 0 {
		return
	}
	w.stageRun(keys, hs, false, false)
	w.apply()
}

// checkRun panics unless a batch's key and value runs have equal length.
func checkRun(op string, keys, vals int, what string) {
	if keys != vals {
		panic(fmt.Sprintf("table: %s length mismatch: %d keys, %d %s", op, keys, vals, what))
	}
}

// StringWriter is the Writer of a table whose engine also hashes
// string items (core.StringEngine: Θ and HLL).
type StringWriter[K Key, V, S, C any] struct{ *Writer[K, V, S, C] }

// UpdateKeyedStringBatch ingests parallel (key, string item) slices:
// each item is hashed by the engine's HashString in the grouping pass
// (zero-alloc string hashing, a block at a time into the writer's block
// array), so log pipelines need no pre-hash step.
func (w *StringWriter[K, V, S, C]) UpdateKeyedStringBatch(keys []K, items []string) {
	checkRun("UpdateKeyedStringBatch", len(keys), len(items), "items")
	if len(keys) == 0 {
		return
	}
	str := w.t.eng.(core.StringEngine[V])
	for len(keys) > 0 {
		n := min(len(keys), stageBlock)
		hs := w.vh[:n]
		for i, s := range items[:n] {
			hs[i] = str.HashString(s)
		}
		w.stageBlock(keys[:n], hs, false)
		keys, items = keys[n:], items[n:]
	}
	w.apply()
}

// BatchAddRun stages parallel runs of keys and raw values without
// applying them: pass 1 of UpdateKeyedBatch as a streaming entry point,
// which a wire decoder feeds a block at a time before one BatchCommit.
// The keys are borrowed: they may alias a buffer (a network read
// buffer) that only has to stay valid until the call returns. Staged
// state is invisible to queries until committed. Slices must have
// equal length.
func (w *Writer[K, V, S, C]) BatchAddRun(keys []K, vals []V) {
	checkRun("BatchAddRun", len(keys), len(vals), "values")
	w.stageRun(keys, vals, true, true)
}

// BatchAddHashed is BatchAddRun for values that already are item hashes
// in the sketch family's hash space: UpdateKeyedHashedBatch's staging
// twin.
func (w *Writer[K, V, S, C]) BatchAddHashed(keys []K, hs []V) {
	checkRun("BatchAddHashed", len(keys), len(hs), "hashes")
	w.stageRun(keys, hs, false, true)
}

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

// stageRun is pass 1 for parallel runs of keys and values, a block of
// at most stageBlock items at a time: raw values are hashed by one
// AppendHashValues call per block, hashed ones are staged as they are.
// borrowed keys may alias a buffer the caller reuses (see group).
func (w *Writer[K, V, S, C]) stageRun(keys []K, vals []V, raw, borrowed bool) {
	for len(keys) > 0 {
		n := min(len(keys), stageBlock)
		hs := vals[:n]
		if raw {
			hs = w.t.eng.AppendHashValues(w.vh[:0], hs)
		}
		w.stageBlock(keys[:n], hs, borrowed)
		keys, vals = keys[n:], vals[n:]
	}
}

// stageBlock is pass 1 for at most stageBlock items, whatever entry
// point, in-process or a wire decoder's, they came through: hs are the
// values in the family's hashed form. The keys are hashed at once, then
// each item is grouped and filtered.
func (w *Writer[K, V, S, C]) stageBlock(keys []K, hs []V, borrowed bool) {
	kh := w.keyHashes(keys)
	for i, k := range keys {
		w.add(w.group(k, kh[i], borrowed), hs[i])
	}
}

// keyHashes returns keyHash of each of at most stageBlock keys, in the
// writer's block array: uint64 keys in one hash.AppendSumUint64 call,
// string keys one by one.
func (w *Writer[K, V, S, C]) keyHashes(keys []K) []uint64 {
	if ks, ok := any(keys).([]uint64); ok {
		return hash.AppendSumUint64(w.kh[:0], ks, shardSeed)
	}
	kh := w.kh[:len(keys)]
	for i, k := range keys {
		kh[i] = keyHash(k)
	}
	return kh
}

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

// group resolves k's group in the staged batch: through its cache slot
// when the key is resident (entering it into the batch on first sight),
// through gidx otherwise, registering the key with its shard on first
// sight; h is keyHash(k). No slot is filled or handed to another key
// while a batch is being staged, so a key is found the same way every
// time. Registering is where a writer starts to keep a key (in its
// group and gidx, then the shard map and the entry cache), so a
// borrowed string key is cloned there, through a pointer so K is never
// boxed, and nowhere else: a resident key is entered from its slot's
// own copy.
func (w *Writer[K, V, S, C]) group(k K, h uint64, borrowed bool) int {
	if s := w.resident(k, h); s != nil && (s.gen == w.gen || w.enter(s)) {
		return int(s.gi)
	}
	if gi, ok := w.gidx[k]; ok {
		return gi
	}
	if p, str := any(&k).(*string); borrowed && str {
		*p = strings.Clone(*p)
	}
	gi := w.register(k, h)
	w.gidx[k] = gi
	return gi
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
// held together — which is what lets Sweep take entry locks exclusively
// under a shard lock it holds exclusively, without forming a
// reader/writer lock cycle against concurrent batches.
func (w *Writer[K, V, S, C]) apply() {
	t := w.t
	var now int64 // read only when t.ages
	if t.ages {
		now = t.now()
	}
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
				if t.ages {
					e.touched.Store(now)
				}
				e.mu.RUnlock()
			}
		}
		w.shardGroups[si] = w.shardGroups[si][:0]
		if created {
			t.maybeEvictCap(uint64(si))
		}
	}
	w.endBatch()
	cells := &t.wstats[w.id]
	cells.hits.Add(w.chits - h0)
	cells.misses.Add(w.cmisses - m0)
	cells.prefiltered.Add(int64(dropped))
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
