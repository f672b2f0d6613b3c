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
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/server/wire"
)

// Aggregator durability: WriteCheckpoints serializes every registered
// table's remote state (named-source snapshots + anonymous aggregate,
// with the live table folded in) to one file per table in a
// checkpoint directory; RestoreCheckpoints loads them back on boot,
// before the port opens. Together with per-source replace semantics
// they make an aggregator restart lossless for everything pushed up
// to the last checkpoint: pushers that outlived the crash simply
// replace their restored snapshots on their next ship, and pushers
// that died keep their last checkpointed contribution in rollups.
// With a journal attached (AttachJournal), ReplayJournal then closes
// the tail gap: records appended since the checkpoint's LSN watermark
// replay on top of the restored state. Restore and replay take their
// records to the apply step the same way (admitThenApply): decoded and
// vetted ahead, concurrently, then applied one by one in order. Each
// part decodes into one slab per image (table.UnmarshalSnapshot), which
// a restored named source keeps whole.
//
// File format (FCCK, little endian), version 2:
//
//	offset  size  field
//	0       4     magic "FCCK"
//	4       1     format version (2)
//	5       3     reserved (0)
//	8       8     written-at wall clock, unix nanoseconds (int64)
//	16      8     applied journal LSN watermark (0 = no journal)
//	24      ...   uvarint table-name length + name bytes
//	...     ...   table body (see tableBackend.checkpointBody)
//	end-4   4     CRC32 (IEEE) of every preceding byte
//
// Version 1 files (no LSN field, name at offset 16) still restore,
// with a zero watermark — exactly right, since no journal existed when
// they were written.
//
// Checkpoints are generational: each pass writes
// <table>-<namecrc>-<generation>.fcck rather than renaming over the
// previous pass's file, and retention keeps the newest
// Config.CheckpointRetain generations per table. Restore picks the
// newest VALID generation per table, opening generations newest first —
// a generation corrupted at rest falls back to the one before it
// (logged), an older one is read only then, and only a table with no
// valid generation at all is a hard error. Each file is written
// atomically — temp file in the same directory, fsync, rename, fsync
// the directory — so a crash mid-checkpoint leaves complete older
// generations in place, never a torn newest one.
const (
	ckptMagic        = "FCCK"
	ckptVersion      = 2
	ckptV1HeaderSize = 16
	ckptHeaderSize   = 24
	ckptSuffix       = ".fcck"
)

// CheckpointStats reports what one WriteCheckpoints or
// RestoreCheckpoints pass covered.
type CheckpointStats struct {
	// Tables is the number of table checkpoint files written or
	// restored; Bytes sums their sizes — for a restore, the files
	// restored, not every file read on the way (a failed newer
	// generation or a skipped file does not count).
	Tables int
	Bytes  int64
	// Skipped counts files RestoreCheckpoints ignored because no
	// matching table is registered (always 0 for writes).
	Skipped int
	// Pruned counts old-generation checkpoint files retention deleted
	// after a successful write pass (always 0 for restores).
	Pruned int
	// Fallbacks counts tables RestoreCheckpoints recovered from an
	// older generation because a newer one failed to parse or restore.
	Fallbacks int
}

// WriteCheckpoints writes one checkpoint file per registered table
// into dir (created if missing) as a new generation, then prunes
// generations past Config.CheckpointRetain. Safe to call while the
// server is serving — each table is quiesced exactly as a
// SNAPSHOT_PULL would — and after Close (the shutdown path checkpoints
// last so nothing ingested during the drain is lost). The checkpoint
// timestamp HEALTH reports advances only when every table was written.
//
// When a journal is attached, the pass rotates it FIRST: every record
// appended while tables are being captured lands in the post-rotation
// file, and every record in older files is — by the journal's
// append-before-apply order — covered by the LSN watermarks this pass
// captures, so a fully successful pass may prune them.
//
// Tables checkpoint concurrently on a bounded worker set (and each
// table's own capture fans out per key), so the pass's total
// ingest-stall is the longest single table's quiesce window, not the
// sum over tables. On error the pass still attempts every table —
// files are independently atomic — and reports the first failure in
// table-name order; nothing is pruned.
func (s *Server) WriteCheckpoints(dir string) (CheckpointStats, error) {
	var st CheckpointStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	j := s.journal.Load()
	if j != nil {
		if err := j.Rotate(); err != nil {
			return st, fmt.Errorf("server: checkpoint: rotate journal: %w", err)
		}
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	now := time.Now()
	gen := s.nextCheckpointGen(now)
	bytes := make([]int64, len(names))
	errs := make([]error, len(names))
	core.FanOut(core.ReadDegree(0), len(names), func(_, i int) {
		name := names[i]
		b, ok := s.lookup(name)
		if !ok {
			return
		}
		data := make([]byte, 0, 4<<10)
		data = append(data, ckptMagic...)
		data = append(data, ckptVersion, 0, 0, 0)
		data = binary.LittleEndian.AppendUint64(data, uint64(now.UnixNano()))
		data = binary.LittleEndian.AppendUint64(data, 0) // LSN, patched below
		data = wire.AppendString(data, name)
		body, lsn, err := b.checkpointBody(data)
		if err != nil {
			errs[i] = fmt.Errorf("server: checkpoint table %q: %w", name, err)
			return
		}
		data = body
		binary.LittleEndian.PutUint64(data[16:24], lsn)
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
		path := filepath.Join(dir, checkpointFileName(name, gen))
		if err := atomicWriteFile(path, data); err != nil {
			errs[i] = fmt.Errorf("server: checkpoint table %q: %w", name, err)
			return
		}
		bytes[i] = int64(len(data))
	})
	for i := range names {
		if errs[i] != nil {
			return st, errs[i]
		}
		if bytes[i] > 0 {
			st.Tables++
			st.Bytes += bytes[i]
		}
	}
	s.lastCheckpoint.Store(now.UnixNano())
	s.checkpoints.Add(1)
	if h := s.ckptHist.Load(); h != nil {
		h.Observe(time.Since(now).Seconds())
	}
	// The pass fully succeeded: older generations (and, with a journal,
	// the pre-rotation files its watermarks cover) may go.
	retain := s.checkpointRetain()
	pruned, err := s.pruneCheckpoints(dir, retain)
	if err != nil {
		return st, err
	}
	st.Pruned = pruned
	if j != nil {
		if err := j.PruneKeep(retain); err != nil {
			return st, fmt.Errorf("server: checkpoint: prune journal: %w", err)
		}
	}
	return st, nil
}

// checkpointRetain resolves the configured per-table generation count.
func (s *Server) checkpointRetain() int {
	if s.cfg.CheckpointRetain > 0 {
		return s.cfg.CheckpointRetain
	}
	return DefaultRetain
}

// nextCheckpointGen issues a strictly increasing generation number:
// the pass timestamp, bumped past any generation already seen (written
// this process or restored from disk), so clock retreat or sub-tick
// passes can never reuse or reorder a generation.
func (s *Server) nextCheckpointGen(now time.Time) uint64 {
	gen := uint64(now.UnixNano())
	for {
		prev := s.ckptGen.Load()
		if gen <= prev {
			gen = prev + 1
		}
		if s.ckptGen.CompareAndSwap(prev, gen) {
			return gen
		}
	}
}

// pruneCheckpoints deletes old checkpoint generations, keeping the
// newest `keep` per table. Only files whose names this code wrote
// (generational or legacy v1 names) are candidates; a file with the
// checkpoint suffix but an unrecognized name is logged and left alone
// — retention must never eat a file it cannot account for.
func (s *Server) pruneCheckpoints(dir string, keep int) (int, error) {
	byPrefix, unrecognized, err := listCheckpoints(dir)
	if err != nil {
		return 0, err
	}
	for _, name := range unrecognized {
		s.logf("server: checkpoint retention: unrecognized file %s, leaving in place", name)
	}
	pruned := 0
	for _, files := range byPrefix {
		if len(files) <= keep {
			continue
		}
		for _, gf := range files[keep:] {
			if err := os.Remove(filepath.Join(dir, gf.name)); err != nil {
				return pruned, err
			}
			pruned++
		}
	}
	return pruned, nil
}

// RestoreCheckpoints loads the newest valid checkpoint generation per
// table into the matching registered tables' remote state. Call it
// after registering tables and before Start/Serve, so the first
// connection after a restart already sees the recovered state. A
// missing or empty directory restores nothing and is not an error
// (first boot). Within the file it restores, a table's parts (the
// aggregate and every source) are admitted concurrently on up to
// GOMAXPROCS cores and applied only if every one of them passes.
//
// A registered table's generations are found by their file names and
// opened newest first: an older generation is read only when every
// newer one failed to parse or restore, and then the fallback is
// logged and counted. Only a table with NO valid generation is a hard
// error, because restoring nothing silently would defeat the point.
// Files whose names match no registered table are read whole: a valid
// one is skipped with a log line naming the table it holds (a config
// that dropped a table must not brick the node), and a corrupt one is
// an error unless a valid generation under the same name prefix was
// found.
func (s *Server) RestoreCheckpoints(dir string) (CheckpointStats, error) {
	var st CheckpointStats
	byPrefix, others, err := listCheckpoints(dir)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	// Future generations must sort after everything already on disk,
	// even across a restart with a retreating clock. The names alone
	// say so, read or not.
	var maxGen uint64
	for _, files := range byPrefix {
		maxGen = max(maxGen, files[0].gen)
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	var newest int64
	for _, name := range names {
		b, _ := s.lookup(name) // tables are never unregistered
		files := byPrefix[checkpointPrefix(name)]
		for i, gf := range files {
			data, err := os.ReadFile(filepath.Join(dir, gf.name))
			if err != nil {
				return st, err
			}
			tname, ts, lsn, body, err := parseCheckpoint(data)
			if err == nil && tname != name {
				err = fmt.Errorf("holds table %q", tname)
			}
			if err == nil {
				err = b.restoreBody(body, lsn)
			}
			if err != nil {
				if i+1 < len(files) {
					s.logf("server: checkpoint %s: %v, falling back to older generation %s", gf.name, err, files[i+1].name)
					continue
				}
				return st, fmt.Errorf("server: checkpoint %s: %w", gf.name, err)
			}
			if i > 0 {
				st.Fallbacks++
				s.logf("server: checkpoint: table %q restored from older generation %s", name, gf.name)
			}
			st.Tables++
			st.Bytes += int64(len(data))
			newest = max(newest, ts)
			break
		}
	}
	for _, name := range names {
		delete(byPrefix, checkpointPrefix(name))
	}
	for _, files := range byPrefix {
		for _, gf := range files {
			others = append(others, gf.name)
		}
	}
	sort.Strings(others)
	type corruptFile struct {
		file, prefix string
		err          error
	}
	var corrupt []corruptFile
	valid := make(map[string]bool) // prefixes with a valid generation
	for _, file := range others {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			return st, err
		}
		prefix, _, ok := parseCheckpointFileName(file)
		name, _, _, _, err := parseCheckpoint(data)
		if err != nil {
			corrupt = append(corrupt, corruptFile{file, prefix, err})
			continue
		}
		s.logf("server: checkpoint %s: holds table %q, but its name matches no registered table, skipping", file, name)
		st.Skipped++
		if ok {
			valid[prefix] = true
		}
	}
	for _, c := range corrupt {
		if c.prefix != "" && valid[c.prefix] {
			// Another generation of the same table is intact: keep
			// booting.
			s.logf("server: checkpoint %s: %v (another generation of its table is valid)", c.file, c.err)
			continue
		}
		return st, fmt.Errorf("server: checkpoint %s: %w", c.file, c.err)
	}
	if st.Tables > 0 {
		// The restored state is as stale as the checkpoint that wrote
		// it — report that age, not zero, so monitors see the true
		// staleness window until the first post-restart checkpoint.
		s.lastCheckpoint.Store(newest)
	}
	for {
		prev := s.ckptGen.Load()
		if maxGen <= prev || s.ckptGen.CompareAndSwap(prev, maxGen) {
			break
		}
	}
	return st, nil
}

// genFile is one checkpoint file and the generation its name carries.
type genFile struct {
	name string
	gen  uint64
}

// listCheckpoints lists dir's checkpoint files from their names alone:
// grouped by table prefix, each group newest generation first, plus the
// files with the checkpoint suffix whose names this code never wrote.
// Temp files and other strangers are not listed.
func listCheckpoints(dir string) (byPrefix map[string][]genFile, unrecognized []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	byPrefix = make(map[string][]genFile)
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ckptSuffix) {
			continue // temp files and strangers: not ours to judge
		}
		prefix, gen, ok := parseCheckpointFileName(ent.Name())
		if !ok {
			unrecognized = append(unrecognized, ent.Name())
			continue
		}
		byPrefix[prefix] = append(byPrefix[prefix], genFile{ent.Name(), gen})
	}
	for _, files := range byPrefix {
		sort.Slice(files, func(a, b int) bool {
			if files[a].gen != files[b].gen {
				return files[a].gen > files[b].gen
			}
			return files[a].name > files[b].name
		})
	}
	return byPrefix, unrecognized, nil
}

// CheckpointAge returns the time since the newest checkpoint this
// server wrote or restored; ok is false when it never has.
func (s *Server) CheckpointAge() (time.Duration, bool) {
	ts := s.lastCheckpoint.Load()
	if ts == 0 {
		return 0, false
	}
	return time.Since(time.Unix(0, ts)), true
}

// parseCheckpoint validates an FCCK image and returns the embedded
// table name, write timestamp, applied-LSN watermark and body. Both
// the current version-2 layout and version-1 files (pre-journal, no
// LSN field) parse; v1 yields a zero watermark.
func parseCheckpoint(data []byte) (name string, ts int64, lsn uint64, body []byte, err error) {
	if len(data) < ckptV1HeaderSize+4 {
		return "", 0, 0, nil, fmt.Errorf("truncated (%d bytes)", len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(payload); got != want {
		return "", 0, 0, nil, fmt.Errorf("checksum mismatch (file %#x, computed %#x)", got, want)
	}
	if string(payload[0:4]) != ckptMagic {
		return "", 0, 0, nil, errors.New("bad magic")
	}
	rest := payload
	switch payload[4] {
	case 1:
		rest = payload[ckptV1HeaderSize:]
	case ckptVersion:
		if len(payload) < ckptHeaderSize {
			return "", 0, 0, nil, fmt.Errorf("truncated header (%d bytes)", len(payload))
		}
		lsn = binary.LittleEndian.Uint64(payload[16:24])
		rest = payload[ckptHeaderSize:]
	default:
		return "", 0, 0, nil, fmt.Errorf("unsupported version %d", payload[4])
	}
	ts = int64(binary.LittleEndian.Uint64(payload[8:16]))
	r := wire.Reader{Buf: rest}
	name = r.String()
	if r.Err != nil || name == "" {
		return "", 0, 0, nil, errors.New("malformed table name")
	}
	return name, ts, lsn, r.Rest(), nil
}

// checkpointPrefix maps a table name to the stable filename prefix its
// generations share: a sanitized form for humans plus the name's CRC
// for uniqueness (two tables whose names sanitize identically must not
// collide). The authoritative name lives inside the file.
func checkpointPrefix(table string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, table)
	const maxSafe = 64
	if len(safe) > maxSafe {
		safe = safe[:maxSafe]
	}
	return fmt.Sprintf("%s-%08x", safe, crc32.ChecksumIEEE([]byte(table)))
}

// checkpointFileName maps a table name and generation to its file
// name; generations are zero-padded hex so lexical order is write
// order.
func checkpointFileName(table string, gen uint64) string {
	return fmt.Sprintf("%s-%016x%s", checkpointPrefix(table), gen, ckptSuffix)
}

// parseCheckpointFileName splits a checkpoint file name into its table
// prefix and generation. Legacy single-generation names (no generation
// field) parse as generation 0, so one new-format pass supersedes
// them. ok is false for names this code never wrote.
func parseCheckpointFileName(name string) (prefix string, gen uint64, ok bool) {
	if !strings.HasSuffix(name, ckptSuffix) {
		return "", 0, false
	}
	stem := name[:len(name)-len(ckptSuffix)]
	// Generational: <safe>-<8 hex>-<16 hex>. Legacy: <safe>-<8 hex>.
	if i := len(stem) - 17; i > 0 && stem[i] == '-' && isHex(stem[i+1:]) {
		head := stem[:i]
		if j := len(head) - 9; j >= 0 && head[j] == '-' && isHex(head[j+1:]) {
			if _, err := fmt.Sscanf(stem[i+1:], "%016x", &gen); err == nil {
				return head, gen, true
			}
		}
	}
	if j := len(stem) - 9; j >= 0 && stem[j] == '-' && isHex(stem[j+1:]) {
		return stem, 0, true
	}
	return "", 0, false
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

// atomicWriteFile writes data to path so that a crash at any point
// leaves either the old complete file or the new complete file: write
// to a temp file in the same directory, fsync it, rename it over
// path, fsync the directory so the rename itself is durable.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
