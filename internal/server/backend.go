package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/table"
)

// reqError is a request-scoped failure: it becomes one FrameErr
// response and the connection keeps serving (unlike framing errors,
// which are fatal to the connection).
type reqError struct {
	code uint64
	msg  string
}

func (e *reqError) Error() string { return e.msg }

func errBadPayload(format string, args ...any) *reqError {
	return &reqError{code: wire.ErrCodeBadPayload, msg: fmt.Sprintf(format, args...)}
}

// backend is one registered table as the connection loop sees it: the
// family- and key-type-erased surface the frame handlers dispatch to.
type backend interface {
	// owner is the registered table itself: one table may be registered
	// under one name only, since every backend owns all of its table's
	// writer handles.
	owner() any
	liveKeys() int
	// poolWaits counts ingest frames that found every writer handle
	// checked out and had to block — the signal that more connections
	// are ingesting concurrently than the table has writers.
	poolWaits() int64
	// poolIdle reports writer handles currently checked in (idle).
	poolIdle() int
	// ingest parses a keyed batch payload (after the table name) and
	// streams it into a writer handle checked out of the pool. It
	// returns the number of items ingested.
	ingest(r *wire.Reader, stringItems bool) (int, error)
	// queryCompact parses a key and appends the response value payload
	// (found byte, kind byte, compact blob) to dst.
	queryCompact(r *wire.Reader, dst []byte) ([]byte, error)
	// rollupAppend appends (kind byte, rollup compact blob) to dst. The
	// rollup merges every live key with every received remote snapshot.
	rollupAppend(dst []byte) ([]byte, error)
	// snapshotAppend drains the table and appends the full merged
	// snapshot (live + remote) as an FCTB blob to dst.
	snapshotAppend(dst []byte) ([]byte, error)
	// apply applies one durable event to the remote state: a snapshot
	// push (a named source replaces its previous snapshot, an empty
	// source merges into the shared aggregate; see
	// wire.FrameSnapshotPush), a window ship (replaces its source's
	// snapshot unless its epoch is below the last one applied from
	// that source: stale, so retried and reordered ships are
	// idempotent; see wire.FrameWindowSnapshot) or an eviction spill
	// (merges one key's compact into the aggregate, so a TTL eviction
	// stays in rollups). The blob is decoded and vetted before any
	// state changes. A live event (LSN 0) is journaled first when a
	// journal is attached, and a failed append aborts it; a replayed
	// one is skipped, unapplied, at or below the watermark.
	apply(rec JournalRecord) (applied, stale bool, err error)
	// admit and applyAdmitted are apply's two halves for records that
	// are restored or replayed, never journaled: admit decodes and vets
	// the blob and takes no lock, so records may be admitted
	// concurrently ahead of their turn (admitThenApply); applyAdmitted
	// applies what admit returned through apply's one step.
	admit(rec *JournalRecord) (any, error)
	applyAdmitted(rec *JournalRecord, adm any) (applied, stale bool, err error)
	// checkpointBody appends the backend's durable state to dst: the
	// live table merged with the anonymous remote aggregate as one FCTB
	// blob, then every named source's snapshot with its window epoch.
	// It also returns the journal LSN watermark the captured state
	// covers (0 without a journal). restoreBody parses it back (into a
	// freshly registered backend) as records, one per part, admitted
	// and applied as replay admits and applies journal records
	// (admitThenApply), and seeds the watermark so replay can skip
	// records the checkpoint already contains.
	checkpointBody(dst []byte) ([]byte, uint64, error)
	restoreBody(body []byte, lsn uint64) error
	// watermark is the LSN of the newest journal record in the state
	// (0 = none): replay skips a record at or below it without decoding
	// its blob, and a whole file whose records all are.
	watermark() uint64
	// bind attaches the backend to its registered name and the server's
	// journal slot; called once by register.
	bind(name string, jnl *atomic.Pointer[Journal])
}

// ingestScratch is one frame's decode scratch, pooled per backend so
// concurrent connections never share it: ks and vs are the block of
// keys and items (raw values or string-item hashes) every frame shape
// is decoded into before the table stages it. A string key in ks is a
// view of the frame, valid until decodeInto returns. The block is not
// on the stack because the table hands the values to its engine, an
// interface call, so a stack array would move to the heap on every
// frame.
type ingestScratch[K, V any] struct {
	ks [decodeBlock]K
	vs [decodeBlock]V
}

// tableBackend adapts one keyed table to the backend surface.
// The server owns the table's writer handles and lends them out
// through a checkout pool: an ingest frame takes any idle handle,
// streams its batch in, and returns it — so conns > Writers queue only
// when every writer is genuinely busy, instead of serialising on a
// connection-pinned slot while other writers sit idle (the table's
// writer contract is single-goroutine per handle, which the channel
// handoff preserves). Registered tables must not be written by anyone
// but the server (queries and snapshots from the embedding process
// stay safe).
type tableBackend[K table.Key, V, S, C any] struct {
	st  *table.Table[K, V, S, C]
	eng core.Engine[V, S, C]
	// str hashes a string item into the family's hash space (the
	// KEYED_STRING_BATCH path); nil when the engine has no string items
	// (quantiles).
	str core.StringEngine[V]
	// seed is the engine's hash seed, checked against every foreign
	// compact when seeded (engine and compact both report one: Θ, HLL) —
	// the one incompatibility a snapshot header cannot express. The check
	// runs before any state changes, so a bad push is rejected whole
	// instead of being stored where it would poison every later query,
	// rollup and pull.
	seed   uint64
	seeded bool
	// unmarshal decodes a pushed FCTB snapshot with the table's own
	// engine (table.UnmarshalSnapshot); a field so that tests can watch
	// admissions.
	unmarshal func([]byte) (*table.TableSnapshot[K, C], error)

	// pool holds the idle writer handles; checkout/checkin move them.
	pool chan *table.Writer[K, V, S, C]
	// waits counts ingest frames that found the pool empty.
	waits atomic.Int64
	// qmu serialises whole-pool drains (snapshot, checkpoint): two
	// concurrent quiescers each holding part of the pool would
	// deadlock waiting for each other's handles.
	qmu sync.Mutex

	// Remote state received via SNAPSHOT_PUSH; rollups, queries and
	// pulls fold it in. Anonymous pushes merge into remote; pushes
	// carrying a source id replace that source's slot in remotes, so a
	// node re-shipping its full cumulative snapshot every tick counts
	// once, not once per tick.
	rmu     sync.Mutex
	remote  *table.TableSnapshot[K, C]
	remotes map[string]*table.TableSnapshot[K, C]
	// remoteOrder tracks named-source insertion order: when remotes
	// reaches maxSnapshotSources, the oldest source is folded into the
	// shared aggregate to free its slot.
	remoteOrder []string
	// remoteEpochs records the highest window epoch applied per source
	// (WINDOW_SNAPSHOT pushes only): a push with a lower epoch is a
	// retry or a reordered stale ship and is ignored. Sources that only
	// ever push cumulative snapshots have no entry.
	remoteEpochs map[string]uint64
	// appliedLSN is the journal LSN of the newest record folded into
	// the remote state (0 = none). Guarded by rmu; checkpoints persist
	// it so boot replay can skip records the checkpoint already covers
	// — merge-semantics records (evictions, anonymous pushes) would
	// double-count without the gate.
	appliedLSN uint64

	// name is the table's registered name (journal records carry it);
	// jnl aliases the owning server's journal slot, nil until one is
	// attached.
	name string
	jnl  *atomic.Pointer[Journal]

	scratch sync.Pool
}

func (b *tableBackend[K, V, S, C]) bind(name string, jnl *atomic.Pointer[Journal]) {
	b.name = name
	b.jnl = jnl
}

// seeded is the surface of an engine and its compacts that the
// pushed-snapshot seed check needs.
type seeded interface{ Seed() uint64 }

// Register serves a keyed table under name. The server becomes the
// table's sole writer (it owns every writer handle); queries, rollups
// and snapshots from the embedding process remain safe concurrently.
// What differs between families is read from the table's engine: string
// items need core.StringEngine (KEYED_STRING_BATCH is ErrCodeUnsupported
// otherwise); a Seed on both the engine and its compacts turns on the
// pushed-snapshot seed check; values are uint64 items or float64 samples
// (sent as their IEEE bits), and any other value type is refused. A
// table is registered under one name only.
func Register[K table.Key, V, S, C any](s *Server, name string, t *table.Table[K, V, S, C]) error {
	var v V
	switch any(v).(type) {
	case uint64, float64:
	default:
		return fmt.Errorf("server: table %q: %T values have no wire encoding", name, v)
	}
	eng := t.Engine()
	b := &tableBackend[K, V, S, C]{
		st:           t,
		eng:          eng,
		unmarshal:    func(p []byte) (*table.TableSnapshot[K, C], error) { return table.UnmarshalSnapshot[K](p, eng) },
		pool:         make(chan *table.Writer[K, V, S, C], t.NumWriters()),
		remote:       table.NewTableSnapshot[K](eng),
		remotes:      make(map[string]*table.TableSnapshot[K, C]),
		remoteEpochs: make(map[string]uint64),
	}
	b.str, _ = eng.(core.StringEngine[V])
	if es, ok := eng.(seeded); ok {
		var c C
		b.seed = es.Seed()
		_, b.seeded = any(c).(seeded)
	}
	for i := 0; i < t.NumWriters(); i++ {
		b.pool <- t.Writer(i)
	}
	b.scratch.New = func() any { return new(ingestScratch[K, V]) }
	return s.register(name, b)
}

// checkSeed vets one foreign compact's hash seed against the table's.
func (b *tableBackend[K, V, S, C]) checkSeed(c C) error {
	if !b.seeded {
		return nil
	}
	if got := any(c).(seeded).Seed(); got != b.seed {
		return fmt.Errorf("compact hash seed %#x, table uses %#x", got, b.seed)
	}
	return nil
}

// checkout takes an idle writer handle, counting the frames that had
// to wait for one; checkin returns it. The channel handoff is the
// single-goroutine-per-handle happens-before.
func (b *tableBackend[K, V, S, C]) checkout() *table.Writer[K, V, S, C] {
	select {
	case w := <-b.pool:
		return w
	default:
		// Pool empty: every writer is mid-batch. This is the capacity
		// signal fcds_server_writer_pool_waits_total exposes — sustained
		// growth means raise the table's Writers.
		b.waits.Add(1)
		return <-b.pool
	}
}

func (b *tableBackend[K, V, S, C]) checkin(w *table.Writer[K, V, S, C]) { b.pool <- w }

// quiesce checks out every writer handle so the table can be drained
// with no server-side ingest in flight; the returned release puts them
// back. qmu keeps concurrent quiescers from splitting the pool between
// them and deadlocking.
func (b *tableBackend[K, V, S, C]) quiesce() (release func()) {
	b.qmu.Lock()
	ws := make([]*table.Writer[K, V, S, C], cap(b.pool))
	for i := range ws {
		ws[i] = <-b.pool
	}
	return func() {
		for _, w := range ws {
			b.pool <- w
		}
		b.qmu.Unlock()
	}
}

// u64Key converts a decoded uint64 wire key to K. Callers have already
// checked the table's key type, so the assertion cannot fail; routing
// the conversion through a pointer keeps it off the heap where
// `any(v).(K)` would box every key.
func u64Key[K table.Key](v uint64) K {
	var k K
	*(any(&k).(*uint64)) = v
	return k
}

// wireVal converts a decoded 8-byte wire value to V: uint64 items as
// they are, float64 samples from their IEEE bits. Register admits no
// other V. Like u64Key it converts through a pointer, off the heap.
func wireVal[V any](v uint64) V {
	var out V
	switch p := any(&out).(type) {
	case *uint64:
		*p = v
	case *float64:
		*p = math.Float64frombits(v)
	}
	return out
}

// strKey is u64Key for string wire keys. s may be a view of the read
// buffer only where the key is borrowed: staged through BatchAddRun or
// BatchAddHashed, which copy what the table keeps. Anywhere else it
// must be an owned copy.
func strKey[K table.Key](s string) K {
	var k K
	*(any(&k).(*string)) = s
	return k
}

func (b *tableBackend[K, V, S, C]) owner() any       { return b.st }
func (b *tableBackend[K, V, S, C]) keyType() byte    { return core.KeyType[K]() }
func (b *tableBackend[K, V, S, C]) liveKeys() int    { return b.st.Keys() }
func (b *tableBackend[K, V, S, C]) poolWaits() int64 { return b.waits.Load() }
func (b *tableBackend[K, V, S, C]) poolIdle() int    { return len(b.pool) }

// viewString aliases a transient byte slice as a string for hashing —
// never retained (the table's string *items* are hashed, not stored).
func viewString(bs []byte) string {
	if len(bs) == 0 {
		return ""
	}
	return unsafe.String(&bs[0], len(bs))
}

func (b *tableBackend[K, V, S, C]) ingest(r *wire.Reader, stringItems bool) (int, error) {
	if kt := r.Byte(); r.Err == nil && kt != b.keyType() {
		return 0, errBadPayload("key type %d, table wants %d", kt, b.keyType())
	}
	count64 := r.Uvarint()
	if r.Err != nil {
		return 0, errBadPayload("truncated batch header")
	}
	// Bound count by the smallest possible wire encoding of one entry
	// (uint64 keys/values are 8 fixed bytes, strings at least a 1-byte
	// length prefix), so a corrupt count cannot size scratch far beyond
	// the bytes actually present. The bound is checked before the
	// uint64 narrows to int: a count >= 2^63 would convert negative and
	// sail past an int comparison straight into a slice-bounds panic.
	minEntry := 2 // string key + string item lower bound
	if b.keyType() == wire.KeyTypeUint64 {
		minEntry += 7
	}
	if !stringItems {
		minEntry += 7
	}
	if count64 > uint64(r.Remaining()/minEntry) {
		return 0, errBadPayload("batch count %d exceeds payload", count64)
	}
	count := int(count64)
	if stringItems && b.str == nil {
		return 0, &reqError{code: wire.ErrCodeUnsupported, msg: "table family has no string-item ingestion"}
	}

	w := b.checkout()
	// Deferred checkin: a panic inside the table's update path unwinds
	// through serveConn's recover, and a lost handle would shrink the
	// pool for every future frame (and wedge quiesce).
	defer b.checkin(w)
	if err := b.decodeInto(w, r, count, stringItems); err != nil {
		// A failed decode left a partial batch staged in the handle's
		// grouping scratch; discard it or it would leak into whatever
		// frame borrows this handle next.
		w.BatchReset()
		return 0, err
	}
	w.BatchCommit()
	return count, nil
}

// decodeBlock is how many pairs decodeInto decodes before it stages
// them: one block of the table's pass 1.
const decodeBlock = 256

// decodeInto streams one keyed-batch payload straight into w's grouping
// scratch, a block at a time — no frame-sized key/value slices, no
// second grouping pass. The wire layout is one run of keys then one run
// of items, so the payload is first split into a cursor over each: at
// a fixed offset for uint64 keys, from the tail for string keys with
// 8-byte values, and by one skip pass over the key lengths for string
// keys with string items. The two cursors then advance in lockstep,
// decodeBlock pairs at a time. A block's keys are decoded by one loop
// and its items by another, each chosen once per block by shape: a
// string key is a view of the payload, which the table copies only
// where it keeps the key; a raw value is staged with BatchAddRun, which
// hashes it, and a string item is hashed here and staged with
// BatchAddHashed.
func (b *tableBackend[K, V, S, C]) decodeInto(w *table.Writer[K, V, S, C], r *wire.Reader, count int, stringItems bool) error {
	u64 := b.keyType() == wire.KeyTypeUint64
	var kr, vr wire.Reader
	switch {
	case u64:
		kr.Buf = r.Bytes(count * 8)
		if r.Err != nil {
			return errBadPayload("truncated batch body")
		}
		vr.Buf = r.Rest()
		if !stringItems && vr.Remaining() != count*8 {
			return errBadPayload("batch body length mismatch")
		}
	case !stringItems:
		rem, vlen := r.Remaining(), count*8
		if rem < vlen {
			return errBadPayload("truncated batch body")
		}
		all := r.Rest()
		kr.Buf, vr.Buf = all[:rem-vlen], all[rem-vlen:]
	default:
		all := r.Buf
		for range count {
			r.StringView()
		}
		if r.Err != nil {
			return errBadPayload("truncated batch body")
		}
		kr.Buf, vr.Buf = all[:len(all)-r.Remaining()], r.Rest()
	}
	sc := b.scratch.Get().(*ingestScratch[K, V])
	defer b.scratch.Put(sc)
	for i := 0; i < count; i += decodeBlock {
		n := min(count-i, decodeBlock)
		ks, vs := sc.ks[:n], sc.vs[:n]
		if u64 {
			for j := range ks {
				ks[j] = u64Key[K](kr.Uint64())
			}
		} else {
			for j := range ks {
				ks[j] = strKey[K](viewString(kr.StringView()))
			}
		}
		if stringItems {
			for j := range vs {
				vs[j] = b.str.HashString(viewString(vr.StringView()))
			}
			w.BatchAddHashed(ks, vs)
		} else {
			for j := range vs {
				vs[j] = wireVal[V](vr.Uint64())
			}
			w.BatchAddRun(ks, vs)
		}
	}
	// The split measured one run exactly (both for uint64 keys with raw
	// values); only the other can come up short or leave bytes over.
	if kr.Err != nil || vr.Err != nil {
		return errBadPayload("truncated batch body")
	}
	if n := kr.Remaining() + vr.Remaining(); n != 0 {
		return errBadPayload("%d trailing bytes after batch", n)
	}
	return nil
}

func (b *tableBackend[K, V, S, C]) queryCompact(r *wire.Reader, dst []byte) ([]byte, error) {
	if kt := r.Byte(); r.Err == nil && kt != b.keyType() {
		return dst, errBadPayload("key type %d, table wants %d", kt, b.keyType())
	}
	var k K
	if b.keyType() == wire.KeyTypeUint64 {
		k = u64Key[K](r.Uint64())
	} else {
		k = strKey[K](r.String())
	}
	if r.Err != nil || r.Remaining() != 0 {
		return dst, errBadPayload("malformed query key")
	}
	c, ok := b.st.CompactKey(k)
	err := func() error {
		b.rmu.Lock()
		defer b.rmu.Unlock()
		return b.eachRemote(func(snap *table.TableSnapshot[K, C]) error {
			rc, rok := snap.Get(k)
			if !rok {
				return nil
			}
			if !ok {
				c, ok = rc, true
				return nil
			}
			merged, err := b.eng.MergeCompact(c, rc)
			if err != nil {
				return err
			}
			c = merged
			return nil
		})
	}()
	if err != nil {
		return dst, &reqError{code: wire.ErrCodeInternal, msg: err.Error()}
	}
	if !ok {
		return append(dst, 0), nil // not found
	}
	blob, err := b.eng.MarshalCompact(c)
	if err != nil {
		return dst, &reqError{code: wire.ErrCodeInternal, msg: err.Error()}
	}
	dst = append(dst, 1, b.eng.Kind())
	return append(dst, blob...), nil
}

func (b *tableBackend[K, V, S, C]) rollupAppend(dst []byte) ([]byte, error) {
	agg := b.eng.NewAggregator()
	if err := agg.Add(b.st.Rollup()); err != nil {
		return dst, &reqError{code: wire.ErrCodeInternal, msg: err.Error()}
	}
	var mergeErr error
	func() {
		b.rmu.Lock()
		defer b.rmu.Unlock()
		_ = b.eachRemote(func(snap *table.TableSnapshot[K, C]) error {
			snap.ForEach(func(_ K, c C) {
				if mergeErr == nil {
					mergeErr = agg.Add(c)
				}
			})
			return mergeErr
		})
	}()
	if mergeErr != nil {
		return dst, &reqError{code: wire.ErrCodeInternal, msg: mergeErr.Error()}
	}
	blob, err := b.eng.MarshalCompact(agg.Result())
	if err != nil {
		return dst, &reqError{code: wire.ErrCodeInternal, msg: err.Error()}
	}
	dst = append(dst, b.eng.Kind())
	return append(dst, blob...), nil
}

// eachRemote visits the anonymous aggregate and then every per-source
// snapshot in the order the sources arrived (remoteOrder, which a
// checkpoint keeps across a restart), stopping at the first error.
// Quantiles merges depend on order, so a fixed order is what makes the
// same state answer with the same bytes. Callers hold b.rmu.
func (b *tableBackend[K, V, S, C]) eachRemote(fn func(*table.TableSnapshot[K, C]) error) error {
	if err := fn(b.remote); err != nil {
		return err
	}
	for _, source := range b.remoteOrder {
		if err := fn(b.remotes[source]); err != nil {
			return err
		}
	}
	return nil
}

// maxSnapshotSources bounds the per-table named-source map: past it,
// admitting a new source folds the oldest source's snapshot into the
// shared aggregate and frees its slot. Without a bound, a client
// looping over fresh source ids (or an edge crash-looping under the
// default host/pid id) would grow server memory one retained snapshot
// per push; with it, memory and per-request fold cost stay bounded,
// data is never dropped, and the push pipeline never bricks. The one
// caveat: a demoted source that later resumes pushing under its old
// id re-counts its folded data in non-idempotent families — reachable
// only with more than maxSnapshotSources simultaneously live pushers.
// A variable only so that tests can reach the bound with few sources.
var maxSnapshotSources = 1024

// admitted is one record's blob decoded and vetted: a push's or window
// ship's snapshot, or a spill's key and compact.
type admitted[K table.Key, C any] struct {
	snap *table.TableSnapshot[K, C]
	key  K
	c    C
}

// admit decodes and vets a record's blob before any state changes: for
// a snapshot, the header check (kind and parameter, against the table's
// own engine, which then decodes every compact); for a spill, the key
// type; for both, the seed check the header cannot express — a Θ/HLL
// blob hashed under a different seed would otherwise be ACKed and then
// fail every later query, rollup and pull it participates in.
// The admitted value is an admitted[K, C].
func (b *tableBackend[K, V, S, C]) admit(rec *JournalRecord) (any, error) {
	var a admitted[K, C]
	var err error
	if rec.Type == jrecEvict {
		if a.key, err = b.decodeKey(rec.KeyType, rec.Key); err != nil {
			return nil, err
		}
		if a.c, err = b.eng.UnmarshalCompact(rec.Blob); err == nil {
			err = b.checkSeed(a.c)
		}
		if err != nil {
			return nil, err
		}
		return a, nil
	}
	a.snap, err = b.unmarshal(rec.Blob)
	if err == nil && b.seeded {
		a.snap.ForEach(func(_ K, c C) {
			if err == nil {
				err = b.checkSeed(c)
			}
		})
	}
	if err != nil {
		return nil, errBadPayload("snapshot: %v", err)
	}
	return a, nil
}

func (b *tableBackend[K, V, S, C]) apply(rec JournalRecord) (applied, stale bool, err error) {
	// The registered name, which the journal may retain: a live frame's
	// table name aliases the connection's read buffer.
	rec.Table = b.name
	adm, err := b.admit(&rec)
	if err != nil {
		return false, false, err
	}
	b.rmu.Lock()
	defer b.rmu.Unlock()
	var jnl *Journal // journals a live event (no LSN yet) when one is attached
	if rec.LSN == 0 && b.jnl != nil {
		jnl = b.jnl.Load()
	}
	return b.applyLocked(&rec, adm.(admitted[K, C]), jnl)
}

func (b *tableBackend[K, V, S, C]) applyAdmitted(rec *JournalRecord, adm any) (applied, stale bool, err error) {
	b.rmu.Lock()
	defer b.rmu.Unlock()
	return b.applyLocked(rec, adm.(admitted[K, C]), nil)
}

// staged is one record on its way through admitThenApply: its backend,
// and what admission made of its blob.
type staged struct {
	b   backend
	rec *JournalRecord
	adm any
	err error // admission's
}

// admitThenApply takes a window of records to the one apply step, for
// checkpoint restore and journal replay alike. Every record is admitted
// first (decoded and vetted, concurrently on up to GOMAXPROCS cores
// through core.FanOut, no lock held), then handed to apply one by one,
// in order; apply finds a failed admission in err, and its first error
// stops the walk. With whole set, a window in which any admission
// failed goes to apply as its first failed record alone, and nothing in
// it is applied: a window that applies whole or not at all (a
// checkpoint's parts) is refused before any state changes.
func admitThenApply(win []staged, whole bool, apply func(*staged) error) error {
	core.FanOut(core.ReadDegree(0), len(win), func(_, i int) {
		win[i].adm, win[i].err = win[i].b.admit(win[i].rec)
	})
	if whole {
		for i := range win {
			if win[i].err != nil {
				return apply(&win[i])
			}
		}
	}
	for i := range win {
		if err := apply(&win[i]); err != nil {
			return err
		}
	}
	return nil
}

// applyLocked is the one step that changes remote state, for live
// events, replayed records and restored checkpoint parts alike: the LSN
// gate (a record that carries an LSN is skipped at or below the
// watermark), the epoch check, the journal append (when jnl is
// non-nil), the state change, the watermark bump. Callers hold b.rmu.
func (b *tableBackend[K, V, S, C]) applyLocked(rec *JournalRecord, a admitted[K, C], jnl *Journal) (applied, stale bool, err error) {
	if rec.LSN != 0 && rec.LSN <= b.appliedLSN {
		return false, false, nil
	}
	// >= rather than >: the shipper snapshots its whole sliding window,
	// which advances within one epoch as slots rotate, so an equal
	// epoch is a newer capture of the same window and must win; only a
	// strictly older epoch is a reordered or replayed stale ship. It
	// changes no state, so a live one is not journaled either.
	if rec.Type == jrecWindow {
		if last, ok := b.remoteEpochs[rec.Source]; ok && rec.Epoch < last {
			b.appliedLSN = max(b.appliedLSN, rec.LSN)
			return false, true, nil
		}
	}
	// Write-ahead order: the record hits the journal (LSN assigned
	// under rmu, so LSN order is apply order) before the in-memory
	// state changes, and a journal failure aborts the change — an
	// event must never be ACKed durable without being durable.
	lsn := rec.LSN
	if jnl != nil {
		if lsn, err = jnl.Append(rec); err != nil {
			return false, false, &reqError{code: wire.ErrCodeInternal, msg: fmt.Sprintf("journal: %v", err)}
		}
	}
	switch {
	case rec.Type == jrecEvict:
		err = b.foldCompactLocked(a.key, a.c)
	case rec.Type == jrecPush && rec.Source == "":
		if err = b.mergeRemoteLocked(a.snap); err != nil {
			err = &reqError{code: wire.ErrCodeBadPayload, msg: err.Error()}
		}
	default:
		// Replace, don't merge: a named source ships its full cumulative
		// snapshot each tick, and merging would re-count every
		// previously shipped sample in non-idempotent families
		// (quantiles). A source that dies keeps its last snapshot
		// deliberately — it holds data its successor (a restarted edge
		// starts from an empty table, under a fresh default source id)
		// no longer has, so evicting it would silently lose that data
		// from rollups.
		if err = b.storeSourceLocked(rec.Source, a.snap); err == nil && rec.Type == jrecWindow {
			b.remoteEpochs[rec.Source] = rec.Epoch
		}
	}
	if err != nil {
		return false, false, err
	}
	b.appliedLSN = max(b.appliedLSN, lsn)
	return true, false, nil
}

// storeSourceLocked replaces a named source's snapshot, admitting the
// source into the bounded map first (folding the oldest source into
// the shared aggregate past maxSnapshotSources). Callers hold b.rmu.
func (b *tableBackend[K, V, S, C]) storeSourceLocked(source string, snap *table.TableSnapshot[K, C]) error {
	if _, exists := b.remotes[source]; !exists {
		for len(b.remotes) >= maxSnapshotSources && len(b.remoteOrder) > 0 {
			oldest := b.remoteOrder[0]
			b.remoteOrder = b.remoteOrder[1:]
			if old, ok := b.remotes[oldest]; ok {
				if err := b.mergeRemoteLocked(old); err != nil {
					// Cannot happen for snapshots that passed admission
					// validation, but never drop data silently.
					return &reqError{code: wire.ErrCodeInternal, msg: err.Error()}
				}
				delete(b.remotes, oldest)
				delete(b.remoteEpochs, oldest)
			}
		}
		b.remoteOrder = append(b.remoteOrder, source)
	}
	b.remotes[source] = snap
	return nil
}

// mergeRemoteLocked folds snap into the anonymous aggregate. An empty
// aggregate takes snap whole, slab and all (a restored checkpoint's
// aggregate); otherwise it merges key by key and keeps only some of
// snap's compacts, each detached from snap's image first: one kept
// compact would keep the whole image's decoded arrays alive (a Θ image
// is one slab), so n pushes that each bring one new key would keep n
// images. Callers hold b.rmu.
func (b *tableBackend[K, V, S, C]) mergeRemoteLocked(snap *table.TableSnapshot[K, C]) error {
	if b.remote.Len() == 0 {
		return b.remote.Merge(snap)
	}
	var err error
	snap.ForEach(func(k K, c C) {
		if err != nil {
			return
		}
		if _, ok := b.remote.Get(k); !ok {
			c = b.eng.DetachCompact(c)
		}
		err = b.foldCompactLocked(k, c)
	})
	return err
}

// decodeKey converts a journal/evict raw key (string bytes or 8-byte
// LE uint64) into K, rejecting a key-type mismatch.
func (b *tableBackend[K, V, S, C]) decodeKey(keyType byte, key []byte) (K, error) {
	var zero K
	if keyType != b.keyType() {
		return zero, fmt.Errorf("key type %d, table wants %d", keyType, b.keyType())
	}
	if b.keyType() == wire.KeyTypeUint64 {
		if len(key) != 8 {
			return zero, fmt.Errorf("uint64 key is %d bytes", len(key))
		}
		r := wire.Reader{Buf: key}
		return u64Key[K](r.Uint64()), nil
	}
	return strKey[K](string(key)), nil
}

// foldCompactLocked merges one compact into the anonymous aggregate's
// slot for k. Callers hold b.rmu.
func (b *tableBackend[K, V, S, C]) foldCompactLocked(k K, c C) error {
	if prev, ok := b.remote.Get(k); ok {
		merged, err := b.eng.MergeCompact(prev, c)
		if err != nil {
			return err
		}
		c = merged
	}
	b.remote.Set(k, c)
	return nil
}

// watermark is the applied LSN: a restored checkpoint seeded it, an
// applied record raised it. ReplayJournal compares a record's LSN with
// it before it hands the record's blob to a decoder, so a covered
// record costs its frame CRC and nothing else.
func (b *tableBackend[K, V, S, C]) watermark() uint64 {
	b.rmu.Lock()
	defer b.rmu.Unlock()
	return b.appliedLSN
}

// snapshotAppend quiesces the writer pool, drains the table so all
// buffered updates are visible, and serializes the live table merged
// with the remote aggregate.
func (b *tableBackend[K, V, S, C]) snapshotAppend(dst []byte) ([]byte, error) {
	snap := func() *table.TableSnapshot[K, C] {
		release := b.quiesce()
		defer release()
		b.st.Drain()
		return b.st.Snapshot()
	}()
	err := func() error {
		b.rmu.Lock()
		defer b.rmu.Unlock()
		return b.eachRemote(snap.Merge)
	}()
	if err != nil {
		return dst, &reqError{code: wire.ErrCodeInternal, msg: err.Error()}
	}
	out, err := snap.AppendBinary(dst)
	if err != nil {
		return dst, &reqError{code: wire.ErrCodeInternal, msg: err.Error()}
	}
	return out, nil
}

// checkpointBody serializes the backend's durable state. Layout:
//
//	uvarint blob length + FCTB blob   — live table ⊎ anonymous aggregate
//	uvarint source count
//	per source (insertion order):
//	  uvarint id length + id bytes
//	  1 byte epoch-present flag, then uvarint window epoch if 1
//	  uvarint blob length + FCTB blob — the source's retained snapshot
//
// The live table and the anonymous aggregate are folded into ONE blob
// on purpose: restore merges that blob into the anonymous aggregate
// (the restored process's live table starts empty), and keeping them
// separate would double-count whichever keys appear in both. Named
// sources stay separate so their replace semantics survive the restart
// — a pusher that reconnects after the restore replaces its restored
// snapshot exactly as it would have replaced the live one.
func (b *tableBackend[K, V, S, C]) checkpointBody(dst []byte) ([]byte, uint64, error) {
	live := func() *table.TableSnapshot[K, C] {
		release := b.quiesce()
		defer release()
		b.st.Drain()
		return b.st.Snapshot()
	}()
	b.rmu.Lock()
	defer b.rmu.Unlock()
	// The watermark is read under the same rmu hold that serializes the
	// remote state, so it covers exactly the journaled records folded
	// into the bytes below — no more, no fewer.
	lsn := b.appliedLSN
	if err := live.Merge(b.remote); err != nil {
		return dst, 0, err
	}
	blob, err := live.MarshalBinary()
	if err != nil {
		return dst, 0, err
	}
	dst = wire.AppendUvarint(dst, uint64(len(blob)))
	dst = append(dst, blob...)
	dst = wire.AppendUvarint(dst, uint64(len(b.remoteOrder)))
	for _, source := range b.remoteOrder {
		snap, ok := b.remotes[source]
		if !ok {
			continue // folded source still listed in order — cannot happen, but never write a dangling id
		}
		dst = wire.AppendString(dst, source)
		if epoch, ok := b.remoteEpochs[source]; ok {
			dst = append(dst, 1)
			dst = wire.AppendUvarint(dst, epoch)
		} else {
			dst = append(dst, 0)
		}
		sblob, err := snap.MarshalBinary()
		if err != nil {
			return dst, 0, err
		}
		dst = wire.AppendUvarint(dst, uint64(len(sblob)))
		dst = append(dst, sblob...)
	}
	return dst, lsn, nil
}

// ckptMinSource is the fewest body bytes one checkpointed source can
// take: a non-empty id (length byte + one byte), the epoch flag, the
// blob length and an FCTB header of 16 bytes.
const ckptMinSource = 2 + 1 + 1 + 16

// restoreBody parses a checkpointBody back into the backend's remote
// state, seeding the LSN watermark journal replay gates on. Each part
// of the body is a record: the aggregate blob an anonymous push, each
// source a named push, or a window ship when it carries an epoch. The
// body's framing is parsed first; then the parts go through
// admitThenApply as one window, whole or not at all: every part passes
// the admission a network push would, concurrently on up to GOMAXPROCS
// cores, and then the parts are applied in file order through the step
// every live and replayed record takes. A corrupt or foreign checkpoint
// is rejected whole before any state changes, leaving the backend
// exactly as it was (which is what lets RestoreCheckpoints fall back to
// an older generation).
func (b *tableBackend[K, V, S, C]) restoreBody(body []byte, lsn uint64) error {
	r := wire.Reader{Buf: body}
	agg := r.Bytes(int(r.Uvarint()))
	n := r.Uvarint()
	if r.Err != nil {
		return fmt.Errorf("checkpoint: truncated body")
	}
	// The count is the writer's claim, the body length a fact: never
	// size anything by a count the remaining bytes cannot hold.
	if n > uint64(r.Remaining()/ckptMinSource) {
		return fmt.Errorf("checkpoint: %d sources claimed, body holds at most %d", n, r.Remaining()/ckptMinSource)
	}
	parts := make([]staged, 1, 1+n)
	parts[0] = staged{b: b, rec: &JournalRecord{Type: jrecPush, Blob: agg}}
	for i := uint64(0); i < n && r.Err == nil; i++ {
		rec := &JournalRecord{Type: jrecPush, Source: r.String()}
		if r.Byte() == 1 {
			rec.Type, rec.Epoch = jrecWindow, r.Uvarint()
		}
		rec.Blob = r.Bytes(int(r.Uvarint()))
		if r.Err == nil && rec.Source == "" {
			return fmt.Errorf("checkpoint: empty source id")
		}
		parts = append(parts, staged{b: b, rec: rec})
	}
	if r.Err != nil || r.Remaining() != 0 {
		return fmt.Errorf("checkpoint: malformed body")
	}
	err := admitThenApply(parts, true, func(p *staged) error {
		switch {
		case p.err != nil && p.rec.Source == "":
			return fmt.Errorf("checkpoint aggregate: %w", p.err)
		case p.err != nil:
			return fmt.Errorf("checkpoint source %q: %w", p.rec.Source, p.err)
		}
		_, _, err := b.applyAdmitted(p.rec, p.adm)
		return err
	})
	if err != nil {
		return err
	}
	b.rmu.Lock()
	defer b.rmu.Unlock()
	b.appliedLSN = max(b.appliedLSN, lsn)
	return nil
}
