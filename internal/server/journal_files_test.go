package server

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/server/wire"
)

// These tests pin the journal's whole-file decisions: compaction deletes
// a sealed file whose records were all superseded without reading it
// and keeps every file that holds a merge record, a rewrite becomes
// visible under its wal- name only once complete, the size trigger backs
// off once the live records alone outgrow MaxBytes, and a boot skips a
// sealed file only when the next file's first record proves every
// record in it covered by every table's watermark.

// thetaServer is a server (never started) with one Θ table of the
// trio's parameters per name, journaling into jdir when jdir is not "".
func thetaServer(tb testing.TB, jdir string, names ...string) (*Server, *Journal) {
	tb.Helper()
	s := New(Config{})
	for _, name := range names {
		tab := newBootTheta(0)
		tb.Cleanup(tab.Close)
		if err := Register(s, name, tab.Table); err != nil {
			tb.Fatal(err)
		}
	}
	if jdir == "" {
		return s, nil
	}
	j, err := OpenJournal(jdir, JournalConfig{MaxBytes: -1, Logf: tb.Logf})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { j.Close() })
	s.AttachJournal(j)
	return s, j
}

// pushRound pushes one cumulative Θ snapshot per source into table
// name, variant selecting the items.
func pushRound(tb testing.TB, s *Server, name string, variant int, sources ...string) {
	tb.Helper()
	b := lookupT(tb, s, name)
	for i, source := range sources {
		if _, _, err := b.apply(JournalRecord{Type: jrecPush, Source: source, Blob: trioBlobs(tb, 10*variant+i, 4)["ev"]}); err != nil {
			tb.Fatal(err)
		}
	}
}

// bootTheta boots a fresh server of the named Θ tables from a
// checkpoint directory (none when "") and a journal directory.
func bootTheta(tb testing.TB, ckptDir, jdir string, names ...string) (*Server, JournalReplayStats) {
	tb.Helper()
	s, _ := thetaServer(tb, "", names...)
	if ckptDir != "" {
		if _, err := s.RestoreCheckpoints(ckptDir); err != nil {
			tb.Fatal(err)
		}
	}
	st, err := s.ReplayJournal(jdir)
	if err != nil {
		tb.Fatal(err)
	}
	return s, st
}

// journalSeqs lists the sequence numbers of dir's journal files.
func journalSeqs(tb testing.TB, dir string) []uint64 {
	tb.Helper()
	files, err := listJournalFiles(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var seqs []uint64
	for _, jf := range files {
		seqs = append(seqs, jf.seq)
	}
	return seqs
}

// journalLSNs lists the LSNs of every intact record in dir's journal
// files, in file order.
func journalLSNs(tb testing.TB, dir string) []uint64 {
	tb.Helper()
	var lsns []uint64
	for _, seq := range journalSeqs(tb, dir) {
		_ = walkJournalFile(filepath.Join(dir, journalFileName(seq)), func(rec *JournalRecord) error {
			lsns = append(lsns, rec.LSN)
			return nil
		}, nil)
	}
	return lsns
}

// copyFiles copies every regular file of src into dst.
func copyFiles(tb testing.TB, src, dst string) {
	tb.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// flipAt inverts the byte at offset off of path.
func flipAt(tb testing.TB, path string, off int) {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// checkpointedWithTail is the directory every skip test starts from:
// four sources pushed into each named table, a checkpoint pass (which
// seals file 1, every record of it covered), then two tail pushes into
// the first table, in file 2.
func checkpointedWithTail(t *testing.T, names ...string) (dir string, crashed *Server) {
	t.Helper()
	dir = t.TempDir()
	s, j := thetaServer(t, dir, names...)
	for _, name := range names {
		pushRound(t, s, name, 0, "edge-0", "edge-1", "edge-2", "edge-3")
	}
	if _, err := s.WriteCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	pushRound(t, s, names[0], 1, "edge-1", "edge-4")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs := journalSeqs(t, dir); !slices.Equal(seqs, []uint64{1, 2}) {
		t.Fatalf("journal files %v, want [1 2]", seqs)
	}
	return dir, s
}

// TestJournalSkipsCoveredFileUnread: a sealed file whose records the
// checkpoint covers is not read at boot — garbage in its middle is
// neither truncated nor logged — and the booted state is the crashed
// server's.
func TestJournalSkipsCoveredFileUnread(t *testing.T) {
	dir, crashed := checkpointedWithTail(t, "ev")
	sealed := filepath.Join(dir, journalFileName(1))
	fi, err := os.Stat(sealed)
	if err != nil {
		t.Fatal(err)
	}
	for off := fi.Size() / 3; off < 2*fi.Size()/3; off += 97 {
		flipAt(t, sealed, int(off))
	}
	boot, st := bootTheta(t, dir, dir, "ev")
	if st.SkippedFiles != 1 || st.Files != 1 || st.TornBytes != 0 || st.Records != 2 || st.Skipped != 0 {
		t.Fatalf("replay stats = %+v, want file 1 skipped unread and the 2-record tail applied", st)
	}
	if got, want := stateOf(t, lookupT(t, boot, "ev")), stateOf(t, lookupT(t, crashed, "ev")); !maps.Equal(got, want) {
		t.Fatal("the booted table differs from the crashed one")
	}
}

// TestJournalNoSkipWithUncheckpointedTable: with two tables, one of them
// without a checkpoint (its watermark is 0), no file is skipped — that
// table's records in the sealed file are replayed — even though the
// other table's watermark covers the whole sealed file.
func TestJournalNoSkipWithUncheckpointedTable(t *testing.T) {
	dir, crashed := checkpointedWithTail(t, "ev", "ev2")
	for _, name := range tableCheckpoints(t, dir, "ev") {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	boot, st := bootTheta(t, dir, dir, "ev", "ev2")
	if st.SkippedFiles != 0 || st.Files != 2 || st.Records != 6 || st.Skipped != 4 {
		t.Fatalf("replay stats = %+v, want both files read: ev's 4 records and the tail applied, ev2's 4 skipped", st)
	}
	for _, name := range []string{"ev", "ev2"} {
		if got, want := stateOf(t, lookupT(t, boot, name)), stateOf(t, lookupT(t, crashed, name)); !maps.Equal(got, want) {
			t.Fatalf("the booted table %q differs from the crashed one", name)
		}
	}
}

// TestJournalReadsFileBeforeCorruptFirstFrame: when the next file's
// first frame fails its CRC it proves nothing, so the file before it is
// read (its records are skipped one by one by the watermark).
func TestJournalReadsFileBeforeCorruptFirstFrame(t *testing.T) {
	dir, _ := checkpointedWithTail(t, "ev")
	flipAt(t, filepath.Join(dir, journalFileName(2)), jnlHeaderSize+40)
	boot, st := bootTheta(t, dir, dir, "ev")
	if st.SkippedFiles != 0 || st.Files != 2 || st.Skipped != 4 || st.Records != 0 || st.TornBytes == 0 {
		t.Fatalf("replay stats = %+v, want file 1 read (4 records skipped) and the torn tail dropped", st)
	}
	// The tail is lost; what the checkpoint holds is not.
	want, _ := bootTheta(t, dir, t.TempDir(), "ev")
	if got := stateOf(t, lookupT(t, boot, "ev")); !maps.Equal(got, stateOf(t, lookupT(t, want, "ev"))) {
		t.Fatal("the booted table differs from the checkpoint's")
	}
}

// TestJournalPartialRewriteBootsLikeFullReplay: compaction's fallback
// rewrite interrupted by a crash — its output partial under the
// temporary name, or complete under its wal- name with the old files
// not yet deleted — boots to the state the full history does, with and
// without a checkpoint (whose watermark lets the boot skip files).
func TestJournalPartialRewriteBootsLikeFullReplay(t *testing.T) {
	dir := t.TempDir()
	s, j := thetaServer(t, dir, "ev")
	pushRound(t, s, "ev", 0, "edge-0", "edge-1", "edge-2")
	if _, _, err := lookupT(t, s, "ev").apply(JournalRecord{Type: jrecPush, Blob: trioBlobs(t, 99, 4)["ev"]}); err != nil { // a merge record
		t.Fatal(err)
	}
	if _, err := s.WriteCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	pushRound(t, s, "ev", 1, "edge-1", "edge-3")
	if err := j.Rotate(); err != nil {
		t.Fatal(err)
	}
	pushRound(t, s, "ev", 2, "edge-3", "edge-4")
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	full := t.TempDir()
	copyFiles(t, dir, full)

	j.mu.Lock()
	err := j.rewriteLocked()
	out := j.seq
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if kept, all := len(journalLSNs(t, dir)), len(journalLSNs(t, full)); kept >= all {
		t.Fatalf("the rewrite kept %d of %d records: the test would exercise nothing", kept, all)
	}
	if seqs := journalSeqs(t, dir); !slices.Equal(seqs, []uint64{out}) {
		t.Fatalf("after the rewrite: journal files %v, want only [%d]", seqs, out)
	}
	output, err := os.ReadFile(filepath.Join(dir, journalFileName(out)))
	if err != nil {
		t.Fatal(err)
	}
	crashes := map[string]func(d string){
		"partial-temp": func(d string) {
			p := filepath.Join(d, journalFileName(out)+jnlTemp)
			if err := os.WriteFile(p, output[:len(output)*2/3], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"complete-beside-old": func(d string) {
			if err := os.WriteFile(filepath.Join(d, journalFileName(out)), output, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, crash := range crashes {
		t.Run(name, func(t *testing.T) {
			d := t.TempDir()
			copyFiles(t, full, d)
			crash(d)
			for _, ckpt := range []string{"", d} {
				want, _ := bootTheta(t, ckpt, full, "ev")
				got, st := bootTheta(t, ckpt, d, "ev")
				if !maps.Equal(stateOf(t, lookupT(t, got, "ev")), stateOf(t, lookupT(t, want, "ev"))) {
					t.Fatalf("checkpoint dir %q: the boot (stats %+v) differs from full-history replay", ckpt, st)
				}
			}
			// Reopened, the journal drops the partial output and carries on.
			jr, err := OpenJournal(d, JournalConfig{MaxBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer jr.Close()
			if _, err := os.Stat(filepath.Join(d, journalFileName(out)+jnlTemp)); !os.IsNotExist(err) {
				t.Fatalf("reopened journal left the temporary file (stat: %v)", err)
			}
		})
	}
}

// TestJournalCompactionDeletesDeadFileUnread: a sealed file whose every
// record a newer one superseded is deleted by compaction without being
// read — its bytes are garbage here — and no rewrite follows when that
// brings the journal under MaxBytes.
func TestJournalCompactionDeletesDeadFileUnread(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalConfig{MaxBytes: 1 << 30, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	blob := bytes.Repeat([]byte{7}, 1000)
	for _, src := range []string{"a", "b"} {
		if _, err := j.AppendPush("t", src, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Rotate(); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, journalFileName(1))
	fi, err := os.Stat(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sealed, bytes.Repeat([]byte{0xff}, int(fi.Size())), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendPush("t", "a", blob); err != nil {
		t.Fatal(err)
	}
	// The next append crosses MaxBytes; without file 1 the journal is
	// back under it.
	j.mu.Lock()
	j.cfg.MaxBytes, j.trigger = j.total+1, j.total+1
	j.mu.Unlock()
	if _, err := j.AppendPush("t", "b", blob); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Compactions != 1 || st.ActiveSeq != 2 {
		t.Fatalf("stats = %+v, want one compaction and file 2 still active (no rewrite)", st)
	}
	if seqs := journalSeqs(t, dir); !slices.Equal(seqs, []uint64{2}) {
		t.Fatalf("journal files %v, want [2]: the dead file deleted", seqs)
	}
	if lsns := journalLSNs(t, dir); !slices.Equal(lsns, []uint64{3, 4}) {
		t.Fatalf("journal records %v, want [3 4]", lsns)
	}
}

// TestJournalCompactionKeepsEvictionFiles: a sealed file holding an
// eviction spill (merge semantics: live until a checkpoint covers it)
// is never deleted as dead, even when every push in it was superseded;
// a sealed file of superseded pushes only is.
func TestJournalCompactionKeepsEvictionFiles(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalConfig{MaxBytes: 1 << 30, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	blob := bytes.Repeat([]byte{7}, 500)
	push := func(src string) {
		if _, err := j.AppendPush("t", src, blob); err != nil {
			t.Fatal(err)
		}
	}
	push("a") // lsn 1, file 1
	evict := JournalRecord{Type: jrecEvict, Table: "t", KeyType: wire.KeyTypeString, Key: []byte("cold"), Blob: blob}
	if _, err := j.Append(&evict); err != nil { // lsn 2, file 1
		t.Fatal(err)
	}
	for _, srcs := range [][]string{{"a", "b"}, {"a", "b"}} { // files 2 and 3
		if err := j.Rotate(); err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			push(src)
		}
	}
	j.mu.Lock()
	err = j.compactLocked()
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if seqs := journalSeqs(t, dir); !slices.Equal(seqs, []uint64{1, 3}) {
		t.Fatalf("journal files %v, want [1 3]: file 2 dead, file 1 kept for its eviction", seqs)
	}

	// Forced to rewrite, compaction carries the eviction and the newest
	// push per source, nothing else.
	j.mu.Lock()
	j.cfg.MaxBytes = 1
	err = j.compactLocked()
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if lsns := journalLSNs(t, dir); !slices.Equal(lsns, []uint64{2, 5, 6}) {
		t.Fatalf("journal records after the rewrite %v, want [2 5 6]", lsns)
	}
}

// TestJournalCompactionTriggerBacksOff: once the live records alone
// outgrow MaxBytes, the next compaction waits until the journal is
// twice what the last one left, instead of rewriting it on every
// append.
func TestJournalCompactionTriggerBacksOff(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalConfig{FsyncEvery: 8, MaxBytes: 1 << 20, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const sources, appends = 8, 100
	blob := bytes.Repeat([]byte{7}, 200<<10)
	for i := 0; i < appends; i++ {
		if _, err := j.AppendPush("t", fmt.Sprintf("edge-%d", i%sources), blob); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	// 8 live records of 200 KiB leave ~1.6 MiB after each compaction, so
	// the next one waits for ~3.3 MiB: about one per 8 appends.
	if st.Compactions == 0 || st.Compactions > appends/5 {
		t.Fatalf("%d compactions in %d appends, want between 1 and %d", st.Compactions, appends, appends/5)
	}
	lsns := journalLSNs(t, dir)
	if n := len(lsns); n < sources || lsns[n-1] != appends {
		t.Fatalf("journal records %v, want at least the last %d, ending at %d", lsns, sources, appends)
	}
}

// BenchmarkJournalPush prices the journal's append path on the
// ship_recover workload's shape: 445 KB snapshot blobs round-robin over
// 8 sources, an fsync every 8 appends, a 12 MiB compaction threshold,
// and a checkpoint pass's Rotate + PruneKeep every 16 appends. One op
// is 1 440 appends into a fresh directory; it reports ns/append, the
// 99th-percentile append latency and the compactions per op.
func BenchmarkJournalPush(b *testing.B) {
	const (
		sources  = 8
		blobSize = 445_000
		ckptGap  = 16
		appends  = 1440
	)
	blobs := make([][]byte, sources)
	for i := range blobs {
		blobs[i] = bytes.Repeat([]byte{byte(i + 1)}, blobSize)
	}
	lat := make([]time.Duration, 0, appends)
	var compactions int64
	var pushTime time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		j, err := OpenJournal(dir, JournalConfig{FsyncEvery: 8, MaxBytes: 12 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for n := 0; n < appends; n++ {
			t0 := time.Now()
			if _, err := j.AppendPush("agg", fmt.Sprintf("edge-%d", n%sources), blobs[n%sources]); err != nil {
				b.Fatal(err)
			}
			d := time.Since(t0)
			lat = append(lat, d)
			pushTime += d
			if (n+1)%ckptGap == 0 {
				if err := j.Rotate(); err != nil {
					b.Fatal(err)
				}
				if err := j.PruneKeep(2); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		compactions += j.Stats().Compactions
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	sort.Slice(lat, func(a, c int) bool { return lat[a] < lat[c] })
	n := float64(b.N)
	b.ReportMetric(float64(pushTime.Nanoseconds())/(n*appends), "ns/append")
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds())/1000, "p99_ms/append")
	b.ReportMetric(float64(compactions)/n, "compactions/op")
}
