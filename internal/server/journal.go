package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fcds/fcds/internal/server/wire"
)

// Durability journal: the FCCK checkpoints bound an aggregator's crash
// loss to one checkpoint interval, but everything that arrived since
// the last pass — named-source snapshot pushes, window snapshot ships,
// eviction spills — dies with the process. The journal closes that gap
// the way log-structured stores do: every durable event is appended to
// a write-ahead log BEFORE it mutates in-memory state, and boot becomes
// restore-checkpoint-then-replay-journal-tail, so recovery loss shrinks
// from "one checkpoint interval" to "at most FsyncEvery-1 acknowledged
// records".
//
// A JournalRecord is the one description of such an event, and one
// backend step applies it wherever it comes from: a live frame or spill
// (journaled first), a replayed record (LSN-gated), or a part of a
// restored checkpoint (the aggregate as an anonymous push, each source
// as a named push or a window ship). appendFrame encodes every record,
// and parseJournalRecord is its exact inverse.
//
// Exactly-once replay is coordinated through log sequence numbers
// (LSNs): the journal assigns a strictly increasing LSN to every
// record, each table backend remembers the highest LSN it has applied,
// and a checkpoint stores that watermark in its FCCK header. Replay
// skips records at or below the restored watermark — so a record that
// made it into the checkpoint is never applied twice (merge-semantics
// records — eviction spills, anonymous pushes — would double-count),
// and a record that did not is applied exactly once.
//
// Files are the unit of both compaction and boot, resting on one
// invariant: every record of file k has a lower LSN than the first
// record of file k+1. Appends keep it (LSNs only grow, and new records
// go to the newest file); compaction keeps it by deleting whole files
// and by making a rewritten file visible under its wal- name only once
// it is complete. So a boot may skip file k unread once file k+1's first
// record is at most one past every table's watermark, and compaction
// may delete a file without reading it once every record in it is
// superseded by a durable newer record of its replace slot.
//
// File format (FCJL, little endian), version 1:
//
//	offset  size  field
//	0       4     magic "FCJL"
//	4       1     format version (1)
//	5       3     reserved (0)
//	8       8     created-at wall clock, unix nanoseconds (int64)
//	16      8     file sequence number
//	24      ...   records
//
// Each record is independently CRC-framed so a torn final write (the
// crash the journal exists for) truncates cleanly on recovery:
//
//	offset  size  field
//	0       4     record length N (bytes after this field)
//	4       8     LSN
//	12      8     appended-at wall clock, unix nanoseconds (int64)
//	20      1     record type
//	21      ...   type-specific body
//	end-4   4     CRC32 (IEEE) of bytes 0..end-4 (length field included)
//
// Record bodies:
//
//	jrecPush:   uvarint table name, uvarint source id (empty = anonymous
//	            merge), rest = FCTB snapshot blob. Named sources REPLACE,
//	            so only the latest record per (table, source) is live.
//	jrecWindow: uvarint table name, uvarint source id, uvarint epoch,
//	            rest = FCTB blob. Replace per source, epoch-guarded.
//	jrecEvict:  uvarint table name, key-type byte, uvarint key length,
//	            key bytes (string keys verbatim, uint64 keys 8 bytes
//	            LE), rest = the evicted key's serialized compact. MERGE
//	            semantics: every record stays live until a checkpoint
//	            covers it.
//
// Every uvarint is written in its shortest form, and the parser refuses
// any other, so that a parsed record re-encodes to its own bytes.
const (
	jnlMagic      = "FCJL"
	jnlVersion    = 1
	jnlHeaderSize = 24
	jnlSuffix     = ".fcjl"
	jnlPrefix     = "wal-"
	jnlTemp       = ".tmp" // a rewrite's output until it is complete

	// Record frame: u32 length + (lsn + ts + type) + body + crc32.
	jnlRecOverhead = 4 + 8 + 8 + 1 + 4

	jrecPush   byte = 1
	jrecWindow byte = 2
	jrecEvict  byte = 3
)

// DefaultJournalMaxBytes is the live-journal size past which an append
// triggers a compacting rotation (see JournalConfig.MaxBytes).
const DefaultJournalMaxBytes = 64 << 20

// DefaultRetain is the number of checkpoint generations (and matching
// journal files) a server keeps when Config.CheckpointRetain is zero.
const DefaultRetain = 2

// JournalConfig configures a Journal. The zero value is usable: fsync
// on every record and a 64 MiB compaction threshold. How many files
// outlive a checkpoint pass is the server's checkpoint retention, not
// the journal's (PruneKeep).
type JournalConfig struct {
	// FsyncEvery fsyncs the journal after every Nth appended record
	// (<= 0 or 1 means every record). Raising it amortizes the fsync
	// over bursts at the cost of the durability window: a crash can
	// lose up to FsyncEvery-1 acknowledged records, so monitors should
	// alert on fcds_server_journal_unsynced_records staying near the
	// configured bound (see the fcds package docs' alerting guidance).
	FsyncEvery int
	// MaxBytes triggers compaction when the journal (all files) exceeds
	// it, or exceeds twice what the last compaction left if that is
	// more — live records that alone outgrow MaxBytes must not make
	// every append compact. Compaction first deletes, unread, every
	// sealed file whose records were all superseded by a newer record
	// of their (table, source, type); only a journal still over MaxBytes
	// is rewritten, keeping the latest record per slot and every
	// merge-semantics record. 0 means DefaultJournalMaxBytes; negative
	// disables size-based compaction.
	MaxBytes int64
	// Logf, when non-nil, receives journal diagnostics (torn tails
	// truncated, unrecognized files skipped). Nil means silent.
	Logf func(format string, args ...any)
}

// Journal is an append-only FCJL write-ahead log. One Journal owns one
// directory's wal-*.fcjl files; appends go to the newest (active) file,
// rotation starts a new one, and retention prunes the old ones once a
// checkpoint covers them. Safe for concurrent use.
type Journal struct {
	dir string
	cfg JournalConfig

	mu      sync.Mutex
	f       *os.File
	seq     uint64 // active file's sequence number
	total   int64  // all files' sizes
	trigger int64  // total past which an append compacts
	nextLSN uint64
	dirty   int    // records appended since the last fsync
	scratch []byte // framing buffer (appendLocked)

	// files holds, per journal file, its size and how many of its
	// records replay still needs: every merge record, and the newest
	// record of each replace slot, which slots locates. Appends,
	// compaction and retention keep both current, so compaction decides
	// by whole files without reading any.
	files map[uint64]*fileLive
	slots map[compactKey]slotRef

	bytes       atomic.Int64 // record bytes appended (headers included)
	records     atomic.Int64
	rotations   atomic.Int64
	compactions atomic.Int64
	fsyncs      atomic.Int64
	unsynced    atomic.Int64
	pruned      atomic.Int64 // journal files deleted by retention
}

// JournalStats is a point-in-time snapshot of a journal's counters.
type JournalStats struct {
	// ActiveSeq is the live file's sequence number; ActiveBytes its
	// size, TotalBytes the size of every journal file on disk.
	ActiveSeq               uint64
	ActiveBytes, TotalBytes int64
	// Records and Bytes count appended records and their framed bytes;
	// Rotations, Compactions, Fsyncs and Pruned count those passes.
	Records, Bytes                 int64
	Rotations, Compactions, Fsyncs int64
	Pruned                         int64
	// Unsynced is the number of acknowledged records not yet fsynced —
	// the crash-loss window FsyncEvery trades for throughput.
	Unsynced int64
}

func (j *Journal) logf(format string, args ...any) {
	if j.cfg.Logf != nil {
		j.cfg.Logf(format, args...)
	}
}

// journalFileName maps a sequence number to its file name; sequence
// numbers are zero-padded hex so lexical order is numeric order.
func journalFileName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", jnlPrefix, seq, jnlSuffix)
}

// parseJournalFileName extracts the sequence number from a journal file
// name; ok is false for files the journal did not write.
func parseJournalFileName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, jnlPrefix) || !strings.HasSuffix(name, jnlSuffix) {
		return 0, false
	}
	mid := name[len(jnlPrefix) : len(name)-len(jnlSuffix)]
	if len(mid) != 16 {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// listJournalFiles returns the directory's journal files sorted by
// sequence number.
func listJournalFiles(dir string) ([]journalFile, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []journalFile
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if seq, ok := parseJournalFileName(ent.Name()); ok {
			files = append(files, journalFile{seq: seq, name: ent.Name()})
		}
	}
	sort.Slice(files, func(a, b int) bool { return files[a].seq < files[b].seq })
	return files, nil
}

type journalFile struct {
	seq  uint64
	name string
}

// OpenJournal opens (creating if needed) the journal in dir and starts
// a fresh active file after the newest existing one. It never appends
// to an existing file: a previous crash may have left a torn tail
// there, and appending past it would bury valid records behind garbage
// — replay reads old files as they are, new records go to the new one.
// Call it AFTER replaying (ReplayJournal): the scan that finds the next
// LSN, and what each file holds that replay still needs, is the same
// tolerant record walk replay does.
func OpenJournal(dir string, cfg JournalConfig) (*Journal, error) {
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = 1
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultJournalMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{
		dir: dir, cfg: cfg, nextLSN: 1, trigger: cfg.MaxBytes,
		files: make(map[uint64]*fileLive), slots: make(map[compactKey]slotRef),
	}
	// A rewrite a crash interrupted left its output under the temporary
	// name, which nothing reads; the files it was copying are all there.
	temps, _ := filepath.Glob(filepath.Join(dir, jnlPrefix+"*"+jnlSuffix+jnlTemp))
	for _, path := range temps {
		_ = os.Remove(path)
	}
	files, err := listJournalFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, jf := range files {
		path := filepath.Join(dir, jf.name)
		j.seq = jf.seq // sorted: the last one is the newest
		fl := &fileLive{}
		if st, err := os.Stat(path); err == nil {
			fl.size = st.Size()
		}
		j.files[jf.seq] = fl
		j.total += fl.size
		// Walk the records to find the highest LSN ever assigned and the
		// records replay needs; torn tails and unreadable files
		// contribute what they can.
		_ = walkJournalFile(path, func(rec *JournalRecord) error {
			if rec.LSN >= j.nextLSN {
				j.nextLSN = rec.LSN + 1
			}
			j.noteLocked(jf.seq, rec.slot(), rec.LSN)
			return nil
		}, nil)
	}
	if err := j.openNextLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// journalHeader is the FCJL file header of file seq.
func journalHeader(seq uint64) []byte {
	hdr := make([]byte, jnlHeaderSize)
	copy(hdr[0:4], jnlMagic)
	hdr[4] = jnlVersion
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(time.Now().UnixNano()))
	binary.LittleEndian.PutUint64(hdr[16:24], seq)
	return hdr
}

// syncDir makes the directory's entries durable: a file created,
// renamed or removed just before a crash is there, or gone, after it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// openNextLocked starts the next sequence file as the active one.
// Callers hold j.mu (or are the constructor).
func (j *Journal) openNextLocked() error {
	if j.f != nil {
		if err := j.syncLocked(); err != nil {
			return err
		}
		if err := j.f.Close(); err != nil {
			return err
		}
		j.f = nil
	}
	j.seq++
	path := filepath.Join(j.dir, journalFileName(j.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(journalHeader(j.seq)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	// Make the file name itself durable: a crash right after rotation
	// must not resurrect a directory without the new file.
	syncDir(j.dir)
	j.f = f
	j.files[j.seq] = &fileLive{size: jnlHeaderSize}
	j.total += jnlHeaderSize
	return nil
}

func (j *Journal) syncLocked() error {
	if j.dirty == 0 || j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.fsyncs.Add(1)
	j.dirty = 0
	j.unsynced.Store(0)
	return nil
}

// Append journals rec under the next LSN, stamped with the time of the
// append, and returns that LSN; rec's own LSN and TS are not read. The
// append happens BEFORE the state change the record describes
// (write-ahead order), and the caller must abort that change if it
// fails.
func (j *Journal) Append(rec *JournalRecord) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	lsn, err := j.appendLocked(*rec)
	j.maybeCompactLocked()
	return lsn, err
}

// AppendPush journals one snapshot push (cumulative replace when source
// is non-empty, anonymous merge when empty) and returns its LSN.
func (j *Journal) AppendPush(table, source string, blob []byte) (uint64, error) {
	return j.Append(&JournalRecord{Type: jrecPush, Table: table, Source: source, Blob: blob})
}

// appendLocked frames and writes rec under the next LSN. Callers hold
// j.mu.
func (j *Journal) appendLocked(rec JournalRecord) (uint64, error) {
	if j.f == nil {
		return 0, errors.New("server: journal closed")
	}
	rec.LSN, rec.TS = j.nextLSN, time.Now().UnixNano()
	buf := rec.appendFrame(j.scratch[:0])
	j.scratch = buf[:0]
	if _, err := j.f.Write(buf); err != nil {
		// A short write leaves a torn tail; recovery truncates it. The
		// LSN is NOT consumed — the state change it would have covered
		// must not happen either (callers abort on journal failure).
		return 0, err
	}
	j.nextLSN++
	j.files[j.seq].size += int64(len(buf))
	j.total += int64(len(buf))
	j.noteLocked(j.seq, rec.slot(), rec.LSN)
	j.bytes.Add(int64(len(buf)))
	j.records.Add(1)
	j.dirty++
	j.unsynced.Store(int64(j.dirty))
	if j.dirty >= j.cfg.FsyncEvery {
		if err := j.syncLocked(); err != nil {
			return 0, err
		}
	}
	return rec.LSN, nil
}

// Rotate closes the active file and starts the next one. WriteCheckpoints
// calls it at the START of a pass: records appended while tables are
// being captured land in the new file, and every record in older files
// is — by the append-before-apply order — at or below each table's
// captured LSN watermark, so those files are fully covered once the
// pass succeeds and retention may prune them.
func (j *Journal) Rotate() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.openNextLocked(); err != nil {
		return err
	}
	j.rotations.Add(1)
	return nil
}

// PruneKeep deletes journal files older than the keep newest ones
// (active file included in the count). Files whose names the journal
// did not write are logged and left alone. Call it only after a fully
// successful checkpoint pass, with the number of checkpoint generations
// kept: restoring the Nth-newest generation needs the journal tail
// since that pass, which starts N files back.
func (j *Journal) PruneKeep(keep int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	files, err := listJournalFiles(j.dir)
	if err != nil {
		return err
	}
	if len(files) <= keep {
		return nil
	}
	for _, jf := range files[:len(files)-keep] {
		if err := j.removeLocked(jf.seq, jf.name); err != nil {
			return err
		}
		j.pruned.Add(1)
	}
	// A slot whose newest record went with a pruned file is gone too.
	for k, ref := range j.slots {
		if j.files[ref.seq] == nil {
			delete(j.slots, k)
		}
	}
	return nil
}

// removeLocked deletes journal file seq (named name) and forgets it.
func (j *Journal) removeLocked(seq uint64, name string) error {
	if err := os.Remove(filepath.Join(j.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if fl := j.files[seq]; fl != nil {
		j.total -= fl.size
		delete(j.files, seq)
	}
	return nil
}

// maybeCompactLocked compacts the journal when its total size crossed
// the trigger: MaxBytes, or twice the bytes the last compaction left
// when that is more. Replay of the compacted journal reaches exactly
// the state full replay would (pinned by
// TestJournalCompactionEquivalence). Callers hold j.mu.
func (j *Journal) maybeCompactLocked() {
	if j.cfg.MaxBytes < 0 || j.total <= j.trigger {
		return
	}
	if err := j.compactLocked(); err != nil {
		// Compaction is an optimization; a failure must not take down
		// the append path. The next append retries.
		j.logf("server: journal compaction: %v", err)
	}
}

// compactKey identifies the slot one record fills: for a named push or
// window ship, the replace slot only its newest record matters for.
// Evictions and anonymous pushes merge, so each of theirs matters.
type compactKey struct {
	typ           byte
	table, source string
}

func (k compactKey) replaces() bool { return k.typ != jrecEvict && k.source != "" }

// fileLive is one journal file's size and the number of its records
// replay still needs.
type fileLive struct {
	size int64
	live int
}

// slotRef locates a replace slot's newest record: its file and LSN.
type slotRef struct{ seq, lsn uint64 }

// noteLocked counts the record at lsn in file seq, filling slot k: a
// merge record stays live until its file goes, a replace record until
// a newer record of its slot arrives and takes its place (an older copy
// — a rewrite's output left beside its inputs — is dead on arrival).
func (j *Journal) noteLocked(seq uint64, k compactKey, lsn uint64) {
	if k.replaces() {
		if old, ok := j.slots[k]; ok {
			if old.lsn > lsn {
				return
			}
			if fl := j.files[old.seq]; fl != nil {
				fl.live--
			}
		}
		j.slots[k] = slotRef{seq, lsn}
	}
	j.files[seq].live++
}

// compactLocked drops what replay no longer needs, by whole files. It
// fsyncs the active file, so every record that superseded another is
// durable, then deletes every sealed file with no live record without
// opening it. Only a journal still over MaxBytes is rewritten
// (rewriteLocked). The next trigger is twice what is left, and never
// below MaxBytes.
func (j *Journal) compactLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	dead := 0
	for seq, fl := range j.files {
		if seq == j.seq || fl.live > 0 {
			continue
		}
		if err := j.removeLocked(seq, journalFileName(seq)); err != nil {
			return err
		}
		dead++
	}
	if j.total > j.cfg.MaxBytes {
		if err := j.rewriteLocked(); err != nil {
			return err
		}
	}
	j.trigger = max(j.cfg.MaxBytes, 2*j.total)
	j.compactions.Add(1)
	j.logf("server: journal compacted: %d dead files deleted, %d bytes live", dead, j.total)
	return nil
}

// rewriteLocked copies the live records of every file, in file order
// with their original frames, into one new file, which becomes the
// active one, and deletes the old files. The copy takes its wal- name
// only once it is complete and durable: it is written under a temporary
// name, fsynced, renamed, and the directory fsynced before any old file
// goes. A crash therefore leaves the old files, alone or beside a
// complete copy — never a partial copy that a boot would read as the
// successor of the last old file. Callers hold j.mu, with the active
// file synced.
func (j *Journal) rewriteLocked() error {
	seqs := slices.Sorted(maps.Keys(j.files))
	out := j.seq + 1
	final := filepath.Join(j.dir, journalFileName(out))
	tmp := final + jnlTemp
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(journalHeader(out)); err != nil {
		return fail(err)
	}
	fl := &fileLive{size: jnlHeaderSize}
	slots := make(map[compactKey]slotRef, len(j.slots))
	dropped := 0
	for _, seq := range seqs {
		var werr error
		_ = walkJournalFile(filepath.Join(j.dir, journalFileName(seq)), func(rec *JournalRecord) error {
			k := rec.slot()
			if k.replaces() {
				if j.slots[k] != (slotRef{seq, rec.LSN}) {
					dropped++
					return nil
				}
				slots[k] = slotRef{out, rec.LSN}
			}
			if _, werr = f.Write(rec.frame); werr != nil {
				return werr
			}
			fl.size += int64(len(rec.frame))
			fl.live++
			return nil
		}, nil)
		if werr != nil {
			return fail(werr)
		}
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fail(err)
	}
	syncDir(j.dir)
	// The copy is durable under its own name: it becomes the active
	// file, and the files it copied may go. The old active file was
	// synced before the copy and is deleted below, so its Close error
	// changes nothing.
	j.f.Close()
	j.f, j.seq, j.dirty = f, out, 0
	j.files[out] = fl
	j.total += fl.size
	j.slots = slots
	for _, seq := range seqs {
		if err := j.removeLocked(seq, journalFileName(seq)); err != nil {
			return err
		}
	}
	j.logf("server: journal rewritten: %d records kept, %d superseded", fl.live, dropped)
	return nil
}

// LSN returns the highest LSN assigned so far (0 before the first
// append).
func (j *Journal) LSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextLSN - 1
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	seq, size, total := j.seq, j.files[j.seq].size, j.total
	j.mu.Unlock()
	return JournalStats{
		ActiveSeq: seq, ActiveBytes: size, TotalBytes: total,
		Records: j.records.Load(), Bytes: j.bytes.Load(),
		Rotations: j.rotations.Load(), Compactions: j.compactions.Load(),
		Fsyncs: j.fsyncs.Load(), Pruned: j.pruned.Load(),
		Unsynced: j.unsynced.Load(),
	}
}

// Sync forces an fsync of any acknowledged-but-unsynced records.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// Close fsyncs and closes the active file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// JournalRecord is one durable server event: a snapshot push, a window
// ship or an eviction spill. One backend step applies it, whether it is
// live, replayed, or a part of a restored checkpoint.
type JournalRecord struct {
	// LSN and TS (appended-at, unix nanoseconds) are set on records read
	// back from the journal; a live event has LSN 0 until Append gives
	// it one.
	LSN  uint64
	TS   int64
	Type byte
	// Table is set for every record type. Source is set for push and
	// window records ("" = anonymous merge); Epoch for window records;
	// KeyType and Key (string keys raw, uint64 keys 8 bytes LE) for
	// eviction records. Blob is the FCTB snapshot (push, window) or
	// serialized compact (evict).
	Table, Source string
	Epoch         uint64
	KeyType       byte
	Key           []byte
	Blob          []byte

	frame []byte // the whole framed record, for compaction's rewrite
}

// slot is the compaction slot the record fills.
func (rec *JournalRecord) slot() compactKey { return compactKey{rec.Type, rec.Table, rec.Source} }

// appendFrame appends rec's framed bytes, LSN and TS included, to dst:
// the one encoder of every record type, and the exact inverse of
// parseJournalRecord.
func (rec *JournalRecord) appendFrame(dst []byte) []byte {
	n := rec.frameLen()
	dst = slices.Grow(dst, n)
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n-4)) // the length counts the bytes after itself
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.TS))
	dst = append(dst, rec.Type)
	dst = wire.AppendString(dst, rec.Table)
	switch rec.Type {
	case jrecPush:
		dst = wire.AppendString(dst, rec.Source)
	case jrecWindow:
		dst = wire.AppendString(dst, rec.Source)
		dst = wire.AppendUvarint(dst, rec.Epoch)
	case jrecEvict:
		dst = append(dst, rec.KeyType)
		dst = wire.AppendUvarint(dst, uint64(len(rec.Key)))
		dst = append(dst, rec.Key...)
	}
	dst = append(dst, rec.Blob...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// frameLen is the length of the frame appendFrame writes for rec.
func (rec *JournalRecord) frameLen() int {
	n := jnlRecOverhead + uvarintLen(uint64(len(rec.Table))) + len(rec.Table) + len(rec.Blob)
	switch rec.Type {
	case jrecPush:
		n += uvarintLen(uint64(len(rec.Source))) + len(rec.Source)
	case jrecWindow:
		n += uvarintLen(uint64(len(rec.Source))) + len(rec.Source) + uvarintLen(rec.Epoch)
	case jrecEvict:
		n += 1 + uvarintLen(uint64(len(rec.Key))) + len(rec.Key)
	}
	return n
}

// uvarintLen is the length of v's shortest uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// walkJournalFile streams a journal file's records through fn, stopping
// at the first framing or checksum failure — append-only files tear
// only at the tail, so everything after a bad frame is the torn write
// (or trailing corruption) recovery exists to discard. The number of
// bytes dropped that way is reported through torn (when non-nil). A
// file with a malformed header is skipped entirely with an error.
func walkJournalFile(path string, fn func(*JournalRecord) error, torn *int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < jnlHeaderSize || string(data[0:4]) != jnlMagic {
		return fmt.Errorf("server: journal %s: bad header", filepath.Base(path))
	}
	if data[4] != jnlVersion {
		return fmt.Errorf("server: journal %s: unsupported version %d", filepath.Base(path), data[4])
	}
	rest := data[jnlHeaderSize:]
	for len(rest) > 0 {
		rec, consumed, ok := parseJournalRecord(rest)
		if !ok {
			if torn != nil {
				*torn += int64(len(rest))
			}
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
		rest = rest[consumed:]
	}
	return nil
}

// parseJournalRecord decodes one framed record; ok is false at a torn
// or corrupt frame (replay truncates there).
func parseJournalRecord(data []byte) (*JournalRecord, int, bool) {
	if len(data) < jnlRecOverhead {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	if n < jnlRecOverhead-4 || n > len(data)-4 {
		return nil, 0, false
	}
	frame := data[: 4+n : 4+n]
	gotCRC := binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if crc32.ChecksumIEEE(frame[:len(frame)-4]) != gotCRC {
		return nil, 0, false
	}
	rec := &JournalRecord{
		LSN:   binary.LittleEndian.Uint64(frame[4:12]),
		TS:    int64(binary.LittleEndian.Uint64(frame[12:20])),
		Type:  frame[20],
		frame: frame,
	}
	r := wire.Reader{Buf: frame[21 : len(frame)-4]}
	rec.Table = r.String()
	switch rec.Type {
	case jrecPush:
		rec.Source = r.String()
		rec.Blob = r.Rest()
	case jrecWindow:
		rec.Source = r.String()
		rec.Epoch = r.Uvarint()
		rec.Blob = r.Rest()
	case jrecEvict:
		rec.KeyType = r.Byte()
		if rec.KeyType != wire.KeyTypeString && rec.KeyType != wire.KeyTypeUint64 {
			return nil, 0, false
		}
		klen := int(r.Uvarint())
		if r.Err != nil || klen > r.Remaining() {
			return nil, 0, false
		}
		rec.Key = r.Bytes(klen)
		if rec.KeyType == wire.KeyTypeUint64 && len(rec.Key) != 8 {
			return nil, 0, false
		}
		rec.Blob = r.Rest()
	default:
		return nil, 0, false
	}
	// A frame longer than its fields' encoding holds a uvarint not in
	// its shortest form: no append wrote it.
	if r.Err != nil || rec.Table == "" || rec.frameLen() != len(frame) {
		return nil, 0, false
	}
	return rec, 4 + n, true
}

// JournalReplayStats reports what one replay pass covered.
type JournalReplayStats struct {
	// Files is the number of journal files walked; SkippedFiles the
	// number left unread because every record in them lies at or below
	// every registered table's watermark (the next file's first record
	// proves it). Records is the number of records applied; Skipped the
	// records of walked files already covered by the restored
	// checkpoints' LSN watermarks (frame CRC-checked, blob never
	// decoded); UnknownTable the records for tables the new
	// configuration no longer registers; Stale the window records whose
	// epoch the receiver had already passed; Errors the intact records
	// that no longer apply (logged, skipped).
	Files, SkippedFiles, Records, Skipped, UnknownTable, Stale, Errors int
	// TornBytes counts trailing bytes discarded as torn writes.
	TornBytes int64
	// MaxLSN is the highest LSN seen; NewestTS the append timestamp of
	// the newest applied record (0 when none) — the replayed-age signal
	// HEALTH and /healthz report.
	MaxLSN   uint64
	NewestTS int64
}

// replayJournalDir walks the journal files in dir in sequence order and
// hands each intact record to apply. A file is skipped unread when the
// next file's first record is intact and at most through+1: by the
// LSN-order invariant every record of the file is then at or below
// through, which the caller guarantees is covered (0 skips nothing).
// Unrecognized and unreadable files are logged and skipped, torn tails
// truncated and counted — recovery must always make it through
// whatever a crash left behind.
func replayJournalDir(dir string, through uint64, apply func(*JournalRecord, *JournalReplayStats) error, logf func(string, ...any)) (JournalReplayStats, error) {
	var st JournalReplayStats
	files, err := listJournalFiles(dir)
	if err != nil {
		return st, err
	}
	for i, jf := range files {
		if through > 0 && i+1 < len(files) {
			if lsn, ok := firstRecordLSN(filepath.Join(dir, files[i+1].name)); ok && lsn-1 <= through {
				st.SkippedFiles++
				continue
			}
		}
		path := filepath.Join(dir, jf.name)
		var torn int64
		err := walkJournalFile(path, func(rec *JournalRecord) error {
			if rec.LSN > st.MaxLSN {
				st.MaxLSN = rec.LSN
			}
			return apply(rec, &st)
		}, &torn)
		if err != nil {
			if logf != nil {
				logf("server: journal replay: %v (file skipped)", err)
			}
			continue
		}
		st.Files++
		if torn > 0 {
			st.TornBytes += torn
			if logf != nil {
				logf("server: journal replay: %s: truncated %d torn trailing bytes", jf.name, torn)
			}
		}
	}
	return st, nil
}

// firstRecordLSN returns the LSN of a journal file's first record; ok
// is false unless the header and that record's frame are intact. It
// reads the header and one frame, sized by the length field only once
// the file is known to hold that many bytes.
func firstRecordLSN(path string) (lsn uint64, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false
	}
	var head [jnlHeaderSize + 4]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return 0, false
	}
	if string(head[0:4]) != jnlMagic || head[4] != jnlVersion {
		return 0, false
	}
	n := int64(binary.LittleEndian.Uint32(head[jnlHeaderSize:]))
	if n < jnlRecOverhead-4 || n > fi.Size()-int64(len(head)) {
		return 0, false
	}
	frame := make([]byte, 4+n)
	copy(frame, head[jnlHeaderSize:])
	if _, err := io.ReadFull(f, frame[4:]); err != nil {
		return 0, false
	}
	rec, _, ok := parseJournalRecord(frame)
	if !ok {
		return 0, false
	}
	return rec.LSN, true
}
