package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
// Exactly-once replay is coordinated through log sequence numbers
// (LSNs): the journal assigns a strictly increasing LSN to every
// record, each table backend remembers the highest LSN it has applied,
// and a checkpoint stores that watermark in its FCCK header. Replay
// skips records at or below the restored watermark — so a record that
// made it into the checkpoint is never applied twice (merge-semantics
// records — eviction spills, anonymous pushes — would double-count),
// and a record that did not is applied exactly once. File boundaries
// carry no correctness weight; they only bound disk usage.
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
const (
	jnlMagic      = "FCJL"
	jnlVersion    = 1
	jnlHeaderSize = 24
	jnlSuffix     = ".fcjl"
	jnlPrefix     = "wal-"

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
// journal files) retention keeps when the configured count is zero.
const DefaultRetain = 2

// JournalConfig configures a Journal. The zero value is usable: fsync
// on every record, 64 MiB compaction threshold, two generations
// retained.
type JournalConfig struct {
	// FsyncEvery fsyncs the journal after every Nth appended record
	// (<= 0 or 1 means every record). Raising it amortizes the fsync
	// over bursts at the cost of the durability window: a crash can
	// lose up to FsyncEvery-1 acknowledged records, so monitors should
	// alert on fcds_server_journal_unsynced_records staying near the
	// configured bound (see the fcds package docs' alerting guidance).
	FsyncEvery int
	// MaxBytes triggers a compacting rotation when the live journal
	// (all files) exceeds it: replace-semantics records collapse to the
	// latest per (table, source, type), merge-semantics records are
	// carried verbatim, and the old files are deleted. <= 0 means
	// DefaultJournalMaxBytes; negative disables size-based compaction.
	MaxBytes int64
	// Retain is the number of journal files kept by PruneKeep after a
	// successful checkpoint pass (<= 0 means DefaultRetain). Keep it
	// equal to the checkpoint retention count: restoring the Nth-newest
	// checkpoint generation needs the journal tail since that pass.
	Retain int
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
	size    int64  // active file's size in bytes
	total   int64  // all files' sizes (compaction trigger)
	nextLSN uint64
	dirty   int    // records appended since the last fsync
	scratch []byte // framing buffer (appendLocked / rewriteLocked)
	body    []byte // body-building buffer (typed Append helpers)

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
// LSN is the same tolerant record walk replay does.
func OpenJournal(dir string, cfg JournalConfig) (*Journal, error) {
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = 1
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultJournalMaxBytes
	}
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, cfg: cfg, nextLSN: 1}
	files, err := listJournalFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, jf := range files {
		path := filepath.Join(dir, jf.name)
		if jf.seq >= j.seq {
			j.seq = jf.seq
		}
		if st, err := os.Stat(path); err == nil {
			j.total += st.Size()
		}
		// Walk the records to find the highest LSN ever assigned; torn
		// tails and unreadable files contribute what they can.
		_ = walkJournalFile(path, func(rec *JournalRecord) error {
			if rec.LSN >= j.nextLSN {
				j.nextLSN = rec.LSN + 1
			}
			return nil
		}, nil)
	}
	if err := j.openNextLocked(); err != nil {
		return nil, err
	}
	return j, nil
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
	var hdr [jnlHeaderSize]byte
	copy(hdr[0:4], jnlMagic)
	hdr[4] = jnlVersion
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(time.Now().UnixNano()))
	binary.LittleEndian.PutUint64(hdr[16:24], j.seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	// Make the file name itself durable: a crash right after rotation
	// must not resurrect a directory without the new file.
	if d, err := os.Open(j.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	j.f = f
	j.size = jnlHeaderSize
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

// appendLocked frames and writes one record, returning its LSN.
// Callers hold j.mu.
func (j *Journal) appendLocked(typ byte, body []byte) (uint64, error) {
	if j.f == nil {
		return 0, errors.New("server: journal closed")
	}
	lsn := j.nextLSN
	n := len(body) + jnlRecOverhead - 4 // length counts bytes after itself
	buf := j.scratch[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(time.Now().UnixNano()))
	buf = append(buf, typ)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	j.scratch = buf[:0]
	if _, err := j.f.Write(buf); err != nil {
		// A short write leaves a torn tail; recovery truncates it. The
		// LSN is NOT consumed — the state change it would have covered
		// must not happen either (callers abort on journal failure).
		return 0, err
	}
	j.nextLSN++
	j.size += int64(len(buf))
	j.total += int64(len(buf))
	j.bytes.Add(int64(len(buf)))
	j.records.Add(1)
	j.dirty++
	j.unsynced.Store(int64(j.dirty))
	if j.dirty >= j.cfg.FsyncEvery {
		if err := j.syncLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// AppendPush journals one snapshot push (cumulative replace when source
// is non-empty, anonymous merge when empty) and returns its LSN. The
// append happens BEFORE the in-memory merge (write-ahead order), and
// the caller must abort the merge if it fails.
func (j *Journal) AppendPush(table, source string, blob []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	body := j.bodyScratch(len(table) + len(source) + len(blob) + 16)
	body = wire.AppendString(body, table)
	body = wire.AppendString(body, source)
	body = append(body, blob...)
	lsn, err := j.appendLocked(jrecPush, body)
	j.body = body[:0]
	j.maybeCompactLocked()
	return lsn, err
}

// AppendWindow journals one epoch-guarded window snapshot ship.
func (j *Journal) AppendWindow(table, source string, epoch uint64, blob []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	body := j.bodyScratch(len(table) + len(source) + len(blob) + 24)
	body = wire.AppendString(body, table)
	body = wire.AppendString(body, source)
	body = wire.AppendUvarint(body, epoch)
	body = append(body, blob...)
	lsn, err := j.appendLocked(jrecWindow, body)
	j.body = body[:0]
	j.maybeCompactLocked()
	return lsn, err
}

// AppendEvict journals one eviction spill: the evicted key (string
// keys as raw bytes, uint64 keys as 8 bytes little endian) and its
// serialized compact. Merge semantics — every spill stays live in the
// journal until a checkpoint covers it.
func (j *Journal) AppendEvict(table string, keyType byte, key, compact []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	body := j.bodyScratch(len(table) + len(key) + len(compact) + 24)
	body = wire.AppendString(body, table)
	body = append(body, keyType)
	body = wire.AppendUvarint(body, uint64(len(key)))
	body = append(body, key...)
	body = append(body, compact...)
	lsn, err := j.appendLocked(jrecEvict, body)
	j.body = body[:0]
	j.maybeCompactLocked()
	return lsn, err
}

// bodyScratch returns an empty body buffer with at least n capacity.
// Bodies are built under j.mu, so one buffer serves every append; it is
// distinct from j.scratch (the framing buffer), which appendLocked uses
// while the body is still alive.
func (j *Journal) bodyScratch(n int) []byte {
	if cap(j.body) < n {
		j.body = make([]byte, 0, n+n/4)
	}
	return j.body[:0]
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

// PruneKeep deletes journal files older than the Retain newest ones
// (active file included in the count). Files whose names the journal
// did not write are logged and left alone. Call it only after a fully
// successful checkpoint pass.
func (j *Journal) PruneKeep() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pruneLocked(j.cfg.Retain)
}

func (j *Journal) pruneLocked(keep int) error {
	files, err := listJournalFiles(j.dir)
	if err != nil {
		return err
	}
	if len(files) <= keep {
		return nil
	}
	for _, jf := range files[:len(files)-keep] {
		path := filepath.Join(j.dir, jf.name)
		st, serr := os.Stat(path)
		if err := os.Remove(path); err != nil {
			return err
		}
		if serr == nil {
			j.total -= st.Size()
		}
		j.pruned.Add(1)
	}
	return nil
}

// maybeCompactLocked compacts the journal in place when its total size
// crossed MaxBytes: replace-semantics records (push, window) collapse
// to the latest per (table, source, type), merge-semantics records
// (evictions, anonymous pushes) are carried verbatim, original LSNs and
// order preserved — so replay of the compacted journal reaches exactly
// the state full replay would (pinned by TestJournalCompactionEquivalence).
// Callers hold j.mu.
func (j *Journal) maybeCompactLocked() {
	if j.cfg.MaxBytes < 0 || j.total <= j.cfg.MaxBytes {
		return
	}
	if err := j.compactLocked(); err != nil {
		// Compaction is an optimization; a failure must not take down
		// the append path. The next append retries.
		j.logf("server: journal compaction: %v", err)
	}
}

// compactKey identifies the replace slot one push/window record fills.
type compactKey struct {
	typ           byte
	table, source string
}

func (j *Journal) compactLocked() error {
	files, err := listJournalFiles(j.dir)
	if err != nil {
		return err
	}
	// Pass 1: find the latest LSN per replace slot.
	latest := make(map[compactKey]uint64)
	for _, jf := range files {
		_ = walkJournalFile(filepath.Join(j.dir, jf.name), func(rec *JournalRecord) error {
			if rec.Type == jrecPush || rec.Type == jrecWindow {
				if rec.Source != "" {
					k := compactKey{rec.Type, rec.Table, rec.Source}
					if rec.LSN > latest[k] {
						latest[k] = rec.LSN
					}
				}
			}
			return nil
		}, nil)
	}
	// Pass 2: stream the live records into a fresh file.
	if err := j.openNextLocked(); err != nil {
		return err
	}
	compacted := files
	kept, dropped := 0, 0
	for _, jf := range compacted {
		_ = walkJournalFile(filepath.Join(j.dir, jf.name), func(rec *JournalRecord) error {
			if rec.Type == jrecPush || rec.Type == jrecWindow {
				if rec.Source != "" && latest[compactKey{rec.Type, rec.Table, rec.Source}] != rec.LSN {
					dropped++
					return nil
				}
			}
			kept++
			return j.rewriteLocked(rec)
		}, nil)
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	// Old files only go away once the replacement is durable.
	for _, jf := range compacted {
		path := filepath.Join(j.dir, jf.name)
		st, serr := os.Stat(path)
		if err := os.Remove(path); err != nil {
			return err
		}
		if serr == nil {
			j.total -= st.Size()
		}
	}
	j.compactions.Add(1)
	j.logf("server: journal compacted: %d records kept, %d superseded, %d bytes live", kept, dropped, j.total)
	return nil
}

// rewriteLocked re-frames an existing record (original LSN and
// timestamp) into the active file during compaction.
func (j *Journal) rewriteLocked(rec *JournalRecord) error {
	buf := j.scratch[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.body)+jnlRecOverhead-4))
	buf = binary.LittleEndian.AppendUint64(buf, rec.LSN)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.TS))
	buf = append(buf, rec.Type)
	buf = append(buf, rec.body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	j.scratch = buf[:0]
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	j.size += int64(len(buf))
	j.total += int64(len(buf))
	j.dirty++
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
	seq, size, total := j.seq, j.size, j.total
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

// JournalRecord is one parsed journal record, as replay sees it.
type JournalRecord struct {
	LSN  uint64
	TS   int64 // appended-at, unix nanoseconds
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

	body []byte // raw body, for compaction rewrite
}

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
		LSN:  binary.LittleEndian.Uint64(frame[4:12]),
		TS:   int64(binary.LittleEndian.Uint64(frame[12:20])),
		Type: frame[20],
		body: frame[21 : len(frame)-4],
	}
	r := wire.Reader{Buf: rec.body}
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
	if r.Err != nil || rec.Table == "" {
		return nil, 0, false
	}
	return rec, 4 + n, true
}

// JournalReplayStats reports what one replay pass covered.
type JournalReplayStats struct {
	// Files is the number of journal files walked; Records the number
	// of records applied; Skipped the records already covered by the
	// restored checkpoints' LSN watermarks (frame CRC-checked, blob
	// never decoded); UnknownTable the records for tables the new
	// configuration no longer registers; Stale the window records whose
	// epoch the receiver had already passed; Errors the intact records
	// that no longer apply (logged, skipped).
	Files, Records, Skipped, UnknownTable, Stale, Errors int
	// TornBytes counts trailing bytes discarded as torn writes.
	TornBytes int64
	// MaxLSN is the highest LSN seen; NewestTS the append timestamp of
	// the newest applied record (0 when none) — the replayed-age signal
	// HEALTH and /healthz report.
	MaxLSN   uint64
	NewestTS int64
}

// replayJournalDir walks every journal file in dir in sequence order
// and hands each intact record to apply. Unrecognized and unreadable
// files are logged and skipped, torn tails truncated and counted —
// recovery must always make it through whatever a crash left behind.
func replayJournalDir(dir string, apply func(*JournalRecord, *JournalReplayStats) error, logf func(string, ...any)) (JournalReplayStats, error) {
	var st JournalReplayStats
	files, err := listJournalFiles(dir)
	if err != nil {
		return st, err
	}
	for _, jf := range files {
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
