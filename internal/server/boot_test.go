package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/hll"
	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/stream"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// These tests pin what a boot reads and decodes: replay skips a record
// its table's watermark covers before decoding the record's blob,
// restore opens a table's checkpoint generations newest first and reads
// an older one only on fallback, and a checkpoint's blobs are admitted
// concurrently with the same all-or-nothing outcome as one at a time.

// Parameters of the trio tables and of every blob pushed into them.
const (
	bootThetaK  = 1024
	bootQuantK  = 128
	bootHLLPrec = 11
	bootWriters = 1
	bootShards  = 4
	itemsPerKey = 40
	foreignSeed = 7 // a Θ hash seed no trio table uses
)

// trioTables names the tables bootTrio registers.
var trioTables = []string{"ev", "lat", "dev"}

func newBootTheta(seed uint64) *table.ThetaTable[string] {
	return table.NewTheta(table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: bootWriters, Shards: bootShards},
		K:     bootThetaK, MaxError: 1, Seed: seed,
	})
}

func newBootQuantiles() *table.QuantilesTable[string] {
	return table.NewQuantiles(table.QuantilesConfig[string]{
		Table: table.Config[string]{Writers: bootWriters, Shards: bootShards},
		K:     bootQuantK,
	})
}

func newBootHLL() *table.HLLTable[uint64] {
	return table.NewHLL(table.HLLConfig[uint64]{
		Table:     table.Config[uint64]{Writers: bootWriters, Shards: bootShards},
		Precision: bootHLLPrec,
	})
}

// bootTrio is a server (never started) with one table per family: Θ
// "ev" and quantiles "lat" keyed by string, HLL "dev" keyed by uint64.
func bootTrio(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s := New(cfg)
	ev, lat, dev := newBootTheta(0), newBootQuantiles(), newBootHLL()
	tb.Cleanup(func() { ev.Close(); lat.Close(); dev.Close() })
	for _, err := range []error{Register(s, "ev", ev.Table), Register(s, "lat", lat.Table), Register(s, "dev", dev.Table)} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// lookupT resolves a registered table's backend or fails the test.
func lookupT(tb testing.TB, s *Server, name string) backend {
	tb.Helper()
	b, ok := s.lookup(name)
	if !ok {
		tb.Fatalf("table %q not registered", name)
	}
	return b
}

// snapshotter is the part of a table a source blob is taken from.
type snapshotter interface {
	Drain()
	SnapshotBinary() ([]byte, error)
}

func snapshotBlob(tb testing.TB, st snapshotter) []byte {
	tb.Helper()
	st.Drain()
	blob, err := st.SnapshotBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// trioBlobs returns one FCTB blob per trio table, each taken from a
// table of its own fed keys keys × itemsPerKey items; variant shifts
// the items so that two sources hold different sketches.
func trioBlobs(tb testing.TB, variant, keys int) map[string][]byte {
	tb.Helper()
	ev, lat, dev := newBootTheta(0), newBootQuantiles(), newBootHLL()
	defer func() { ev.Close(); lat.Close(); dev.Close() }()
	sk := make([]string, 0, keys*itemsPerKey)
	uk := make([]uint64, 0, keys*itemsPerKey)
	iv := make([]uint64, 0, keys*itemsPerKey)
	fv := make([]float64, 0, keys*itemsPerKey)
	for k := 0; k < keys; k++ {
		for j := 0; j < itemsPerKey; j++ {
			v := uint64(variant)<<32 | uint64(k*itemsPerKey+j)
			sk, uk, iv, fv = append(sk, fmt.Sprintf("key-%d", k)), append(uk, uint64(k)), append(iv, v), append(fv, float64(v))
		}
	}
	ev.Writer(0).UpdateKeyedBatch(sk, iv)
	lat.Writer(0).UpdateKeyedBatch(sk, fv)
	dev.Writer(0).UpdateKeyedBatch(uk, iv)
	return map[string][]byte{"ev": snapshotBlob(tb, ev), "lat": snapshotBlob(tb, lat), "dev": snapshotBlob(tb, dev)}
}

// foreignThetaBlob is an intact Θ snapshot hashed under foreignSeed:
// it parses, and admission rejects it at the seed check.
func foreignThetaBlob(tb testing.TB) []byte {
	tb.Helper()
	tab := newBootTheta(foreignSeed)
	defer tab.Close()
	tab.Writer(0).UpdateKeyedBatch([]string{"a", "b", "c"}, []uint64{1, 2, 3})
	return snapshotBlob(tb, tab)
}

// remoteState flattens a backend's remote state into comparable form:
// every (source, key) pair's compact bytes, each source's key count and
// window epoch, the source order and the applied watermark.
func remoteState[K table.Key, V, S, C any](b *tableBackend[K, V, S, C]) map[string]string {
	b.rmu.Lock()
	defer b.rmu.Unlock()
	out := map[string]string{
		"lsn":   fmt.Sprint(b.appliedLSN),
		"order": strings.Join(b.remoteOrder, "\x00"),
	}
	add := func(source string, snap *table.TableSnapshot[K, C]) {
		out[fmt.Sprintf("keys %q", source)] = fmt.Sprint(snap.Len())
		snap.ForEach(func(k K, c C) {
			blob, err := b.eng.MarshalCompact(c)
			if err != nil {
				blob = []byte("marshal: " + err.Error())
			}
			out[fmt.Sprintf("%q/%v", source, k)] = string(blob)
		})
	}
	add("", b.remote)
	for source, snap := range b.remotes {
		add(source, snap)
	}
	for source, epoch := range b.remoteEpochs {
		out[fmt.Sprintf("epoch %q", source)] = fmt.Sprint(epoch)
	}
	return out
}

// stateOf is remoteState for any trio backend.
func stateOf(tb testing.TB, b backend) map[string]string {
	tb.Helper()
	switch tbk := b.(type) {
	case *tableBackend[string, uint64, float64, *theta.Compact]:
		return remoteState(tbk)
	case *tableBackend[string, float64, *quantiles.Snapshot, *quantiles.Sketch]:
		return remoteState(tbk)
	case *tableBackend[uint64, uint64, float64, *hll.Sketch]:
		return remoteState(tbk)
	}
	tb.Fatalf("unexpected backend %T", b)
	return nil
}

// sealCheckpoint frames body as a version-2 FCCK image of the named
// table, as WriteCheckpoints does.
func sealCheckpoint(name string, lsn uint64, body []byte) []byte {
	data := append([]byte(ckptMagic), ckptVersion, 0, 0, 0)
	data = binary.LittleEndian.AppendUint64(data, uint64(time.Now().UnixNano()))
	data = binary.LittleEndian.AppendUint64(data, lsn)
	data = wire.AppendString(data, name)
	data = append(data, body...)
	return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
}

// tableCheckpoints returns the names of one table's checkpoint files in
// dir, newest generation first (zero-padded hex: lexical order is
// generation order).
func tableCheckpoints(tb testing.TB, dir, name string) []string {
	tb.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), checkpointPrefix(name)+"-") && strings.HasSuffix(e.Name(), ckptSuffix) {
			files = append(files, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(files)))
	return files
}

// logSink collects a server's log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) matching(substr string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return out
}

// TestReplaySkipsCoveredWithoutDecoding: a record at or below its
// table's restored watermark is skipped before its blob is decoded. The
// covered records here carry intact frames around blobs admission would
// reject (a foreign hash seed), so decoding them first would count each
// one as an error and log it.
func TestReplaySkipsCoveredWithoutDecoding(t *testing.T) {
	dir := t.TempDir()
	srv := bootTrio(t, Config{})
	j, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv.AttachJournal(j)
	ev := lookupT(t, srv, "ev")
	good, foreign := trioBlobs(t, 1, 8)["ev"], foreignThetaBlob(t)
	if _, _, err := lookupT(t, bootTrio(t, Config{}), "ev").apply(JournalRecord{Type: jrecPush, Source: "probe", Blob: foreign}); err == nil {
		t.Fatal("the foreign-seed blob was admitted: the test would exercise nothing")
	}

	if _, _, err := ev.apply(JournalRecord{Type: jrecPush, Source: "edge-1", Blob: good}); err != nil { // lsn 1
		t.Fatal(err)
	}
	for _, source := range []string{"edge-x", ""} { // lsn 2, 3: journaled, never applied
		if _, err := j.AppendPush("ev", source, foreign); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ev.apply(JournalRecord{Type: jrecPush, Source: "edge-2", Blob: good}); err != nil { // lsn 4
		t.Fatal(err)
	}
	if _, err := srv.WriteCheckpoints(dir); err != nil { // watermark 4
		t.Fatal(err)
	}
	if _, _, err := ev.apply(JournalRecord{Type: jrecPush, Source: "edge-3", Blob: good}); err != nil { // lsn 5: the tail
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var logs logSink
	boot := bootTrio(t, Config{Logf: logs.logf})
	if _, err := boot.RestoreCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	st, err := boot.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Skipped != 4 || st.Errors != 0 {
		t.Fatalf("replay stats = %+v, want 1 applied, 4 covered and skipped, 0 errors", st)
	}
	if lines := logs.matching("lsn="); len(lines) > 0 {
		t.Fatalf("replay logged covered records: %q", lines)
	}
	if got, want := stateOf(t, lookupT(t, boot, "ev")), stateOf(t, ev); !maps.Equal(got, want) {
		t.Fatal("the booted Θ table differs from the crashed one")
	}
}

// TestRestoreReadsNewestGenerationFirst: with an intact newest
// generation, an older generation corrupted at rest is never read — not
// logged, not a fallback — and Bytes counts the files restored.
func TestRestoreReadsNewestGenerationFirst(t *testing.T) {
	dir := t.TempDir()
	srv := bootTrio(t, Config{})
	for i := 0; i < 2; i++ {
		for name, blob := range trioBlobs(t, i, 8) {
			if _, _, err := lookupT(t, srv, name).apply(JournalRecord{Type: jrecPush, Source: fmt.Sprintf("edge-%d", i), Blob: blob}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.WriteCheckpoints(dir); err != nil {
			t.Fatal(err)
		}
	}
	var newestBytes int64
	for _, name := range trioTables {
		files := tableCheckpoints(t, dir, name)
		if len(files) != 2 {
			t.Fatalf("table %q has checkpoint files %q, want 2 generations", name, files)
		}
		fi, err := os.Stat(filepath.Join(dir, files[0]))
		if err != nil {
			t.Fatal(err)
		}
		newestBytes += fi.Size()
	}
	older := tableCheckpoints(t, dir, "ev")[1]
	path := filepath.Join(dir, older)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs logSink
	boot := bootTrio(t, Config{Logf: logs.logf})
	st, err := boot.RestoreCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != 3 || st.Fallbacks != 0 || st.Bytes != newestBytes {
		t.Fatalf("restore stats = %+v, want 3 tables, 0 fallbacks, %d bytes (the newest generations)", st, newestBytes)
	}
	if lines := logs.matching(older); len(lines) > 0 {
		t.Fatalf("restore read the older generation: %q", lines)
	}
	if got, want := stateOf(t, lookupT(t, boot, "ev")), stateOf(t, lookupT(t, srv, "ev")); !maps.Equal(got, want) {
		t.Fatal("the restored Θ table differs from the newest checkpoint's")
	}
}

// TestFallbackReplaysEveryRetainedGeneration: a checkpoint pass prunes
// the journal to the server's own generation count, so a restore that
// falls back to the oldest retained generation still finds every push
// since that pass. Here three generations are kept, the newest two are
// corrupt, and replay must bring back the pushes of b, c and d on top
// of the generation that holds only a.
func TestFallbackReplaysEveryRetainedGeneration(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	srv := bootTrio(t, Config{CheckpointRetain: 3})
	j, err := OpenJournal(jdir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv.AttachJournal(j)
	lat := lookupT(t, srv, "lat")
	for i, source := range []string{"a", "b", "c", "d"} {
		if _, _, err := lat.apply(JournalRecord{Type: jrecPush, Source: source, Blob: trioBlobs(t, i, 1)["lat"]}); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			if _, err := srv.WriteCheckpoints(cdir); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range tableCheckpoints(t, cdir, "lat")[:2] {
		path := filepath.Join(cdir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	boot := bootTrio(t, Config{CheckpointRetain: 3})
	if st, err := boot.RestoreCheckpoints(cdir); err != nil || st.Fallbacks != 1 {
		t.Fatalf("restore: stats %+v, err %v; want one fallback", st, err)
	}
	if _, err := boot.ReplayJournal(jdir); err != nil {
		t.Fatal(err)
	}
	b := lookupT(t, boot, "lat").(*tableBackend[string, float64, *quantiles.Snapshot, *quantiles.Sketch])
	out, err := b.rollupAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := b.eng.UnmarshalCompact(out[1:])
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(4 * itemsPerKey); sk.N() != want {
		t.Fatalf("booted rollup N = %d, want %d (every push a, b, c, d)", sk.N(), want)
	}
	if got, want := stateOf(t, b), stateOf(t, lat); !maps.Equal(got, want) {
		t.Fatal("the booted quantiles table differs from the crashed one")
	}
}

// replaceSourceBlob re-encodes a checkpoint body with source i's blob
// swapped for blob.
func replaceSourceBlob(tb testing.TB, body []byte, i int, blob []byte) []byte {
	tb.Helper()
	r := wire.Reader{Buf: body}
	agg := r.Bytes(int(r.Uvarint()))
	n := int(r.Uvarint())
	out := wire.AppendUvarint(nil, uint64(len(agg)))
	out = append(out, agg...)
	out = wire.AppendUvarint(out, uint64(n))
	for j := 0; j < n; j++ {
		out = wire.AppendString(out, r.String())
		flag := r.Byte()
		out = append(out, flag)
		if flag == 1 {
			out = wire.AppendUvarint(out, r.Uvarint())
		}
		sb := r.Bytes(int(r.Uvarint()))
		if j == i {
			sb = blob
		}
		out = wire.AppendUvarint(out, uint64(len(sb)))
		out = append(out, sb...)
	}
	if r.Err != nil || r.Remaining() != 0 || i >= n {
		tb.Fatalf("cannot re-encode source %d of a %d-source body (err %v, %d bytes left)", i, n, r.Err, r.Remaining())
	}
	return out
}

// TestRestoreParallelMatchesSerial: a checkpoint with an aggregate and
// eight sources per family (half of them window ships) restores the same
// per-key compacts at GOMAXPROCS 1 and 4, and at 4 its blobs are
// admitted concurrently. One foreign blob among the eight sources
// rejects the whole generation at either degree and leaves the backend
// as it was.
func TestRestoreParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	srv := bootTrio(t, Config{})
	for i := 0; i < 8; i++ {
		source := fmt.Sprintf("edge-%d", i)
		for name, blob := range trioBlobs(t, i+1, 32) {
			b := lookupT(t, srv, name)
			var err error
			if i%2 == 0 {
				_, _, err = b.apply(JournalRecord{Type: jrecPush, Source: source, Blob: blob})
			} else {
				_, _, err = b.apply(JournalRecord{Type: jrecWindow, Source: source, Epoch: uint64(10 + i), Blob: blob})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, blob := range trioBlobs(t, 100, 32) {
		if _, _, err := lookupT(t, srv, name).apply(JournalRecord{Type: jrecPush, Blob: blob}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.WriteCheckpoints(dir); err != nil {
		t.Fatal(err)
	}

	restore := func(procs int) *Server {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		boot := bootTrio(t, Config{})
		overlapped := make(chan struct{})
		if procs > 1 {
			// The first Θ blob decode waits until a second one starts,
			// which happens only if admission runs concurrently.
			evb := lookupT(t, boot, "ev").(*tableBackend[string, uint64, float64, *theta.Compact])
			unmarshal := evb.unmarshal
			var inflight atomic.Int32
			var once sync.Once
			evb.unmarshal = func(p []byte) (*table.TableSnapshot[string, *theta.Compact], error) {
				if inflight.Add(1) > 1 {
					once.Do(func() { close(overlapped) })
				}
				defer inflight.Add(-1)
				select {
				case <-overlapped:
				case <-time.After(2 * time.Second):
				}
				return unmarshal(p)
			}
		}
		st, err := boot.RestoreCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tables != 3 {
			t.Fatalf("GOMAXPROCS %d: restore stats = %+v, want 3 tables", procs, st)
		}
		if procs > 1 {
			select {
			case <-overlapped:
			default:
				t.Fatalf("GOMAXPROCS %d: no two blobs were ever admitted at once", procs)
			}
		}
		return boot
	}
	serial, parallel := restore(1), restore(4)
	for _, name := range trioTables {
		want := stateOf(t, lookupT(t, srv, name))
		if got := stateOf(t, lookupT(t, serial, name)); !maps.Equal(got, want) {
			t.Fatalf("table %q: the serial restore differs from the checkpointed state", name)
		}
		if got := stateOf(t, lookupT(t, parallel, name)); !maps.Equal(got, want) {
			t.Fatalf("table %q: the parallel restore differs from the checkpointed state", name)
		}
	}

	files := tableCheckpoints(t, dir, "ev")
	data, err := os.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	_, _, lsn, body, err := parseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	bad := replaceSourceBlob(t, body, 5, foreignThetaBlob(t))
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b := lookupT(t, restore(1), "ev")
			before := stateOf(t, b)
			err := b.restoreBody(bad, lsn+99)
			if err == nil || !strings.Contains(err.Error(), `"edge-5"`) {
				t.Fatalf("GOMAXPROCS %d: restore of a body with a foreign source blob = %v, want an error naming edge-5", procs, err)
			}
			if after := stateOf(t, b); !maps.Equal(after, before) {
				t.Fatalf("GOMAXPROCS %d: a rejected generation changed the backend", procs)
			}
		}()
	}
}

// TestRestoreSourceCountBeyondBody: a CRC-valid checkpoint whose body
// claims 2^40 sources and holds none is an error naming the file,
// allocates nothing sized by the claim, and falls back to an intact
// older generation when one exists.
func TestRestoreSourceCountBeyondBody(t *testing.T) {
	srv := bootTrio(t, Config{})
	ev := lookupT(t, srv, "ev")
	if _, _, err := ev.apply(JournalRecord{Type: jrecPush, Source: "edge-0", Blob: trioBlobs(t, 1, 8)["ev"]}); err != nil {
		t.Fatal(err)
	}
	agg := trioBlobs(t, 2, 4)["ev"]
	body := wire.AppendUvarint(nil, uint64(len(agg)))
	body = append(body, agg...)
	body = wire.AppendUvarint(body, 1<<40)

	t.Run("alone", func(t *testing.T) {
		dir := t.TempDir()
		name := checkpointFileName("ev", 1)
		bad := sealCheckpoint("ev", 0, body)
		if err := os.WriteFile(filepath.Join(dir, name), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		boot := bootTrio(t, Config{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := boot.RestoreCheckpoints(dir)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("restore = %v, want an error naming %s", err, name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("a %d-byte checkpoint made the restore allocate %d bytes", len(bad), grew)
		}
	})
	t.Run("fallback", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := srv.WriteCheckpoints(dir); err != nil {
			t.Fatal(err)
		}
		_, gen, ok := parseCheckpointFileName(tableCheckpoints(t, dir, "ev")[0])
		if !ok {
			t.Fatal("unparseable checkpoint file name")
		}
		// Newer than the intact generation by name and by timestamp.
		bad := sealCheckpoint("ev", 0, body)
		if err := os.WriteFile(filepath.Join(dir, checkpointFileName("ev", gen+1)), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		boot := bootTrio(t, Config{})
		st, err := boot.RestoreCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tables != 3 || st.Fallbacks != 1 {
			t.Fatalf("restore stats = %+v, want 3 tables, 1 fallback", st)
		}
		if got, want := stateOf(t, lookupT(t, boot, "ev")), stateOf(t, ev); !maps.Equal(got, want) {
			t.Fatal("the fallback restored a Θ table that differs from the intact generation's")
		}
	})
}

// The boot benchmark's directory has the shape of the benchmark's
// ship_recover workload: sources of keys zipf-keyed items each, pushed
// round-robin into a journaled aggregator that checkpoints every
// ckptEvery pushes, then a tail of pushes no checkpoint covers. After
// five rounds the journal holds what the workload's boots find: the 16
// pushes the newest checkpoint covers and the tail (its 12 MiB
// compaction threshold puts the boundary elsewhere after other counts).
const (
	bootSources    = 8
	bootKeys       = 2000
	bootItems      = 1 << 17
	bootTableK     = 256
	bootCkptEvery  = 16
	bootCkptRounds = 5
	bootTail       = 5
)

// newBootAggregator is the aggregator every boot starts from: one Θ
// table keyed by uint64, retaining two checkpoint generations.
func newBootAggregator(tb testing.TB) (*Server, *table.ThetaTable[uint64]) {
	tb.Helper()
	s := New(Config{CheckpointRetain: 2})
	tab := table.NewTheta(table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: 2, Shards: 1024},
		K:     bootTableK,
	})
	if err := Register(s, "agg", tab.Table); err != nil {
		tb.Fatal(err)
	}
	return s, tab
}

// BenchmarkBoot prices one aggregator boot — RestoreCheckpoints then
// ReplayJournal on a fresh server — from a ship_recover-shaped
// directory: 8 sources of 2 000 keys (2^17 items each), a checkpoint
// every 16 pushes with two generations retained, and a 5-push tail.
// Beside ms/boot it reports the blobs the restore decoded, the journal
// records the replay decoded, and the records it applied, per boot, and
// to tell the two phases apart, restore_ms, replay_ms and the heap
// allocations of both (allocs/boot).
func BenchmarkBoot(b *testing.B) {
	dir := b.TempDir()
	blobs := make([][]byte, bootSources)
	keys, vals := make([]uint64, bootItems), make([]uint64, bootItems)
	for i := range blobs {
		z, sc := stream.NewZipf(bootKeys, 1.2, uint64(100+i)), stream.NewScrambled(uint64(i)*bootItems)
		for j := range keys {
			keys[j], vals[j] = z.Next(), sc.Next()
		}
		tab := table.NewTheta(table.ThetaConfig[uint64]{Table: table.Config[uint64]{Writers: 1, Shards: 1024}, K: bootTableK})
		tab.Writer(0).UpdateKeyedBatch(keys, vals)
		blobs[i] = snapshotBlob(b, tab)
		tab.Close()
	}
	agg, aggTab := newBootAggregator(b)
	j, err := OpenJournal(dir, JournalConfig{FsyncEvery: 8, MaxBytes: 12 << 20})
	if err != nil {
		b.Fatal(err)
	}
	agg.AttachJournal(j)
	ab := lookupT(b, agg, "agg")
	pushed := 0
	push := func(n int) {
		for ; n > 0; n-- {
			src := pushed % bootSources
			if _, _, err := ab.apply(JournalRecord{Type: jrecPush, Source: fmt.Sprintf("edge-%d", src), Blob: blobs[src]}); err != nil {
				b.Fatal(err)
			}
			pushed++
		}
	}
	push(bootSources)
	for r := 0; r < bootCkptRounds; r++ {
		push(bootCkptEvery)
		if _, err := agg.WriteCheckpoints(dir); err != nil {
			b.Fatal(err)
		}
	}
	push(bootTail)
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	aggTab.Close()

	var restoreDecodes, replayDecodes, applied int64
	var restoreTime, replayTime time.Duration
	var allocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, tab := newBootAggregator(b)
		bb := lookupT(b, s, "agg").(*tableBackend[uint64, uint64, float64, *theta.Compact])
		var decodes atomic.Int64
		unmarshal := bb.unmarshal
		bb.unmarshal = func(p []byte) (*table.TableSnapshot[uint64, *theta.Compact], error) {
			decodes.Add(1)
			return unmarshal(p)
		}
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		b.StartTimer()
		t0 := time.Now()
		if _, err := s.RestoreCheckpoints(dir); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		restored := decodes.Load()
		st, err := s.ReplayJournal(dir)
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - mallocs
		restoreTime += t1.Sub(t0)
		replayTime += t2.Sub(t1)
		if st.Records != bootTail || st.Errors != 0 {
			b.Fatalf("replay stats = %+v, want the %d-push tail applied and no errors", st, bootTail)
		}
		restoreDecodes += restored
		replayDecodes += decodes.Load() - restored
		applied += int64(st.Records)
		tab.Close()
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/n, "ms/boot")
	b.ReportMetric(float64(restoreDecodes)/n, "ckpt_blobs_decoded/boot")
	b.ReportMetric(float64(replayDecodes)/n, "records_decoded/boot")
	b.ReportMetric(float64(applied)/n, "records_applied/boot")
	b.ReportMetric(float64(restoreTime.Microseconds())/1000/n, "restore_ms/boot")
	b.ReportMetric(float64(replayTime.Microseconds())/1000/n, "replay_ms/boot")
	b.ReportMetric(float64(allocs)/n, "allocs/boot")
}
