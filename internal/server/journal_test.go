package server_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/table"
)

// These tests pin the durability-journal contract: every named push,
// window ship and eviction spill is journaled before it is applied, a
// fresh server that replays the journal (on top of whatever checkpoints
// it restored) reaches exactly the crashed server's durable state, torn
// tails truncate cleanly, LSN watermarks stop checkpointed records from
// double-applying, and self-compaction never changes the recovered
// state versus a full replay.

// journaledTrioServer is newTrioServer plus an attached journal in dir.
func journaledTrioServer(t *testing.T, dir string) (*server.Server, string, *server.Journal) {
	t.Helper()
	s, addr := newTrioServer(t)
	j, err := server.OpenJournal(dir, server.JournalConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s.AttachJournal(j)
	return s, addr, j
}

// edgeLatBlob builds a cumulative quantiles snapshot with samples
// lo..hi-1 under one key and returns its FCTB blob — the payload shape
// an edge ships upstream.
func edgeLatBlob(t *testing.T, lo, hi int) []byte {
	t.Helper()
	_, addr := newTrioServer(t)
	c := dialT(t, addr)
	keys := make([]string, 0, hi-lo)
	vals := make([]float64, 0, hi-lo)
	for v := lo; v < hi; v++ {
		keys = append(keys, "api")
		vals = append(vals, float64(v))
	}
	if err := c.IngestFloat("lat", keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := c.PullSnapshot("lat")
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// newestJournalFile returns the path of the highest-sequence wal-*.fcjl
// file in dir.
func newestJournalFile(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".fcjl") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no journal files written")
	}
	sort.Strings(names) // zero-padded hex: lexical == numeric
	return filepath.Join(dir, names[len(names)-1])
}

// journalEvent is one remote-state event of TestJournalReplayRestoresState:
// a snapshot push (source "" merges anonymously), a window ship, or an
// eviction spill of one key's compact. A stale window ship carries an
// epoch below its source's last one: the server answers OK and neither
// applies nor journals it.
type journalEvent struct {
	kind    string // "push", "window" or "spill"
	source  string
	epoch   uint64
	stale   bool
	key     string // spills into a string-keyed table
	keyU64  uint64 // spills into the uint64-keyed table
	payload []byte // FCTB snapshot, or the spilled compact
}

// trioPayload ingests n random items under nk keys of prefix (uint64
// keys base+i for the HLL table "dev") into a fresh trio server and
// returns the drained table's snapshot, or, for a spill, its rollup
// compact.
func trioPayload(t *testing.T, rng *rand.Rand, tbl, prefix string, base uint64, nk, n int, spill bool) []byte {
	t.Helper()
	_, addr := newTrioServer(t)
	c := dialT(t, addr)
	var err error
	switch tbl {
	case "dev":
		keys, vals := make([]uint64, n), make([]uint64, n)
		for i := range keys {
			keys[i], vals[i] = base+uint64(rng.Intn(nk)), rng.Uint64()
		}
		err = c.IngestU64(tbl, keys, vals)
	case "lat":
		keys, vals := make([]string, n), make([]float64, n)
		for i := range keys {
			keys[i], vals[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(nk)), rng.Float64()*1000
		}
		err = c.IngestFloat(tbl, keys, vals)
	default:
		keys, vals := make([]string, n), make([]uint64, n)
		for i := range keys {
			keys[i], vals[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(nk)), rng.Uint64()
		}
		err = c.Ingest(tbl, keys, vals)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := c.PullSnapshot(tbl) // drains the table
	if err != nil {
		t.Fatal(err)
	}
	if !spill {
		return blob
	}
	_, compact, err := c.Rollup(tbl)
	if err != nil {
		t.Fatal(err)
	}
	return compact
}

// journalEvents is a seeded mixed sequence for one trio table: two
// anonymous pushes, three named pushes from two sources, three window
// ships and a stale one after them from a third source, and three
// eviction spills, in a seeded order. Each source ships its own keys,
// so a pull merges no key across snapshots and its entries do not
// depend on map order; anonymous pushes and spills share the anonymous
// aggregate's keys and merge there in journal order.
func journalEvents(t *testing.T, tbl string, seed int64) []journalEvent {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"anon", "anon", "named", "named", "named", "window", "window", "window", "spill", "spill", "spill"}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// The stale ship goes after a randomly chosen window ship.
	windows := 0
	at := rng.Intn(3)
	for i, k := range kinds {
		if k == "window" {
			if windows == at {
				kinds = append(kinds[:i+1], append([]string{"stale"}, kinds[i+1:]...)...)
				break
			}
			windows++
		}
	}
	var evs []journalEvent
	epoch := uint64(5)
	for _, kind := range kinds {
		n := 50 + rng.Intn(400)
		switch kind {
		case "anon":
			evs = append(evs, journalEvent{kind: "push", payload: trioPayload(t, rng, tbl, "agg-", 0, 6, n, false)})
		case "named":
			src := []string{"edge-a", "edge-b"}[rng.Intn(2)]
			base := map[string]uint64{"edge-a": 100, "edge-b": 200}[src]
			evs = append(evs, journalEvent{kind: "push", source: src, payload: trioPayload(t, rng, tbl, src+"/", base, 4, n, false)})
		case "window", "stale":
			ev := journalEvent{kind: "window", source: "win", payload: trioPayload(t, rng, tbl, "win/", 300, 4, n, false)}
			if kind == "stale" {
				ev.epoch, ev.stale = epoch-1, true
			} else {
				epoch += uint64(rng.Intn(2)) // an equal epoch is a newer capture and applies
				ev.epoch = epoch
			}
			evs = append(evs, ev)
		case "spill":
			k := rng.Intn(8) // agg-0..5 merge into a pushed key, 6 and 7 are new
			evs = append(evs, journalEvent{
				kind: "spill", key: fmt.Sprintf("agg-%d", k), keyU64: uint64(k),
				payload: trioPayload(t, rng, tbl, "spilled-", 400, 1, n, true),
			})
		}
	}
	return evs
}

// pullBytes returns tbl's SNAPSHOT_PULL answer.
func pullBytes(t *testing.T, c *client.Client, tbl string) string {
	t.Helper()
	blob, err := c.PullSnapshot(tbl)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestJournalReplayRestoresState: for each family, a seeded mixed
// sequence of anonymous and named pushes, window ships (one stale) and
// eviction spills goes into a journaled server. For every event index
// in turn, one run writes a checkpoint after that event; a fresh server
// restores it and replays the journal, and must pull the same bytes as
// the server that never crashed. The run without a checkpoint is the
// crash window the journal exists for: state that arrived before the
// first checkpoint. The stale ship was answered without a journal
// record, so no replay meets a stale one, and the recovered server
// still ignores it when it arrives again.
func TestJournalReplayRestoresState(t *testing.T) {
	for _, in := range []struct {
		tbl  string
		seed int64
	}{{"ev", 1}, {"dev", 2}, {"lat", 3}} {
		t.Run(in.tbl, func(t *testing.T) {
			evs := journalEvents(t, in.tbl, in.seed)
			records := 0 // journaled events
			for _, ev := range evs {
				if !ev.stale {
					records++
				}
			}
			var want string
			for ckptAt := -1; ckptAt < len(evs); ckptAt++ {
				jdir, cdir := t.TempDir(), t.TempDir()
				srvA, addrA, _ := journaledTrioServer(t, jdir)
				ca := dialT(t, addrA)
				covered := 0 // journaled events the checkpoint holds
				for i, ev := range evs {
					var err error
					switch ev.kind {
					case "push":
						err = ca.PushSnapshotFrom(in.tbl, ev.source, ev.payload)
					case "window":
						err = ca.PushWindowSnapshot(in.tbl, ev.source, ev.epoch, ev.payload)
					case "spill":
						if in.tbl == "dev" {
							err = srvA.SpillEvictU64(in.tbl, ev.keyU64, ev.payload)
						} else {
							err = srvA.SpillEvictString(in.tbl, ev.key, ev.payload)
						}
					}
					if err != nil {
						t.Fatalf("event %d (%s): %v", i, ev.kind, err)
					}
					if i <= ckptAt && !ev.stale {
						covered++
					}
					if i == ckptAt {
						if _, err := srvA.WriteCheckpoints(cdir); err != nil {
							t.Fatal(err)
						}
					}
				}
				got := pullBytes(t, ca, in.tbl)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("checkpoint after event %d: the never-crashed server's pull differs from the first run's", ckptAt)
				}

				// "Crash": nothing carried over but the two directories.
				srvB, addrB := newTrioServer(t)
				if _, err := srvB.RestoreCheckpoints(cdir); err != nil {
					t.Fatal(err)
				}
				st, err := srvB.ReplayJournal(jdir)
				if err != nil {
					t.Fatal(err)
				}
				if st.Records != records-covered || st.Skipped != covered || st.Stale != 0 || st.Errors != 0 || st.TornBytes != 0 {
					t.Fatalf("checkpoint after event %d: replay stats = %+v, want %d applied, %d skipped, 0 stale",
						ckptAt, st, records-covered, covered)
				}
				cb := dialT(t, addrB)
				if got := pullBytes(t, cb, in.tbl); got != want {
					t.Fatalf("checkpoint after event %d: the recovered pull differs from the never-crashed server's", ckptAt)
				}

				// Replay is idempotent: every record is now at or below the
				// table's watermark, so a second replay (an operator
				// double-running recovery) applies nothing.
				if st, err := srvB.ReplayJournal(jdir); err != nil || st.Records != 0 || st.Skipped != records {
					t.Fatalf("checkpoint after event %d: second replay stats = %+v (%v), want 0 applied / %d skipped", ckptAt, st, err, records)
				}
				if got := pullBytes(t, cb, in.tbl); got != want {
					t.Fatalf("checkpoint after event %d: a second replay changed the pull", ckptAt)
				}
				// The recovered server kept every source's epoch: the stale
				// ship, sent again, is still ignored.
				for _, ev := range evs {
					if ev.stale {
						if err := cb.PushWindowSnapshot(in.tbl, ev.source, ev.epoch, ev.payload); err != nil {
							t.Fatal(err)
						}
					}
				}
				if got := pullBytes(t, cb, in.tbl); got != want {
					t.Fatalf("checkpoint after event %d: the recovered server applied the stale ship", ckptAt)
				}
			}
		})
	}
}

// TestJournalTornTailTruncates: a crash mid-append leaves a torn final
// frame — a length prefix promising more bytes than exist, or a full
// frame with a bad CRC. Replay must truncate there, keep everything
// before it, and report the dropped bytes.
func TestJournalTornTailTruncates(t *testing.T) {
	cases := []struct {
		name string
		junk func() []byte
	}{
		{"short-write", func() []byte {
			// Claims 50 bytes after the length field, delivers 10.
			b := binary.LittleEndian.AppendUint32(nil, 50)
			return append(b, []byte("tornrecord")...)
		}},
		{"bad-crc", func() []byte {
			// A complete frame whose checksum is garbage.
			b := binary.LittleEndian.AppendUint32(nil, 30)
			for i := 0; i < 30; i++ {
				b = append(b, byte(i*7))
			}
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, addrA, jnl := journaledTrioServer(t, dir)
			ca := dialT(t, addrA)
			if err := ca.PushSnapshotFrom("lat", "edge-1", edgeLatBlob(t, 0, 300)); err != nil {
				t.Fatal(err)
			}
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(newestJournalFile(t, dir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			junk := tc.junk()
			if _, err := f.Write(junk); err != nil {
				t.Fatal(err)
			}
			f.Close()

			srvB, addrB := newTrioServer(t)
			st, err := srvB.ReplayJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.Records != 1 || st.TornBytes != int64(len(junk)) {
				t.Fatalf("replay stats = %+v, want 1 record + %d torn bytes", st, len(junk))
			}
			if got := rollupQuantilesN(t, dialT(t, addrB), "lat"); got != 300 {
				t.Fatalf("replayed lat N = %d, want 300", got)
			}
		})
	}
}

// TestJournalLSNGatingNoDoubleCount: records covered by a checkpoint's
// LSN watermark are skipped on replay. The eviction spill before the
// checkpoint is the dangerous one — it has merge semantics, so without
// the watermark it would re-fold and inflate the quantiles count.
func TestJournalLSNGatingNoDoubleCount(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	srvA, addrA, _ := journaledTrioServer(t, jdir)
	ca := dialT(t, addrA)

	// Before the checkpoint: a named push (replace) and an eviction
	// spill (merge) — 500 + 200 samples.
	if err := ca.PushSnapshotFrom("lat", "edge-1", edgeLatBlob(t, 0, 500)); err != nil {
		t.Fatal(err)
	}
	_, addrS := newTrioServer(t)
	cs := dialT(t, addrS)
	spillKeys := make([]string, 200)
	spillVals := make([]float64, 200)
	for i := range spillKeys {
		spillKeys[i] = "cold"
		spillVals[i] = float64(i)
	}
	if err := cs.IngestFloat("lat", spillKeys, spillVals); err != nil {
		t.Fatal(err)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.PullSnapshot("lat"); err != nil {
		t.Fatal(err)
	}
	_, spillCompact, err := cs.Rollup("lat")
	if err != nil {
		t.Fatal(err)
	}
	if err := srvA.SpillEvictString("lat", "cold", spillCompact); err != nil {
		t.Fatal(err)
	}
	if n := rollupQuantilesN(t, ca, "lat"); n != 700 {
		t.Fatalf("pre-checkpoint lat N = %d, want 700", n)
	}
	if _, err := srvA.WriteCheckpoints(cdir); err != nil {
		t.Fatal(err)
	}

	// After the checkpoint: one more named push from a second source.
	if err := ca.PushSnapshotFrom("lat", "edge-2", edgeLatBlob(t, 1000, 1100)); err != nil {
		t.Fatal(err)
	}

	// Crash. Restore the checkpoint (700 samples, watermark recorded),
	// then replay: only the edge-2 push is above the watermark.
	srvB, addrB := newTrioServer(t)
	if _, err := srvB.RestoreCheckpoints(cdir); err != nil {
		t.Fatal(err)
	}
	cb := dialT(t, addrB)
	if n := rollupQuantilesN(t, cb, "lat"); n != 700 {
		t.Fatalf("restored lat N = %d, want 700", n)
	}
	st, err := srvB.ReplayJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Skipped != 2 {
		t.Fatalf("replay stats = %+v, want 1 applied (edge-2) / 2 LSN-skipped", st)
	}
	if n := rollupQuantilesN(t, cb, "lat"); n != 800 {
		t.Fatalf("recovered lat N = %d, want 800 (700 checkpointed + 100 replayed, no re-fold)", n)
	}
}

// TestJournalRotationRetention: Rotate starts new files, PruneKeep
// deletes all but the keep newest, files the journal did not write
// are left alone, and a reopened journal continues the LSN sequence in
// a fresh file rather than appending to a possibly-torn one.
func TestJournalRotationRetention(t *testing.T) {
	dir := t.TempDir()
	j, err := server.OpenJournal(dir, server.JournalConfig{MaxBytes: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("not-a-real-fctb-blob-but-journal-does-not-care")
	var lastLSN uint64
	for i := 0; i < 4; i++ {
		if lastLSN, err = j.AppendPush("t", fmt.Sprintf("src-%d", i), blob); err != nil {
			t.Fatal(err)
		}
		if err := j.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if lastLSN != 4 {
		t.Fatalf("last LSN = %d, want 4", lastLSN)
	}
	// Strangers: wrong-width sequence, non-journal file.
	for _, name := range []string{"wal-deadbeef.fcjl", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.PruneKeep(2); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Rotations != 4 || st.Pruned == 0 {
		t.Fatalf("stats = %+v, want 4 rotations and pruned files", st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wal, strangers int
	for _, e := range ents {
		switch e.Name() {
		case "wal-deadbeef.fcjl", "notes.txt":
			strangers++
		default:
			wal++
		}
	}
	if wal != 2 || strangers != 2 {
		t.Fatalf("after prune: %d journal files (want 2), %d strangers (want 2 untouched)", wal, strangers)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: a fresh active file past the newest survivor, and LSNs
	// continue past everything ever assigned — pruned files included.
	j2, err := server.OpenJournal(dir, server.JournalConfig{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	lsn, err := j2.AppendPush("t", "src-next", blob)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != lastLSN+1 {
		t.Fatalf("reopened LSN = %d, want %d", lsn, lastLSN+1)
	}
	if st := j2.Stats(); st.ActiveSeq <= 4 {
		t.Fatalf("reopened active seq = %d, want a fresh file past the old ones", st.ActiveSeq)
	}
}

// TestJournalCompactionEquivalence is the self-compaction property
// test: an identical record stream is appended to two journals — one
// with a tiny MaxBytes that forces repeated self-compaction, one with
// compaction disabled — and a fresh server replaying each must answer
// every family's rollup identically. Compaction may drop superseded
// per-source records but must never change recovered state.
func TestJournalCompactionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0x70ac7))
	dirC := t.TempDir() // compacting
	dirF := t.TempDir() // full history
	jc, err := server.OpenJournal(dirC, server.JournalConfig{MaxBytes: 8 << 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	jf, err := server.OpenJournal(dirF, server.JournalConfig{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()

	// The record source: one edge accumulating state across rounds, its
	// cumulative snapshots shipped per round under a rotating source id
	// (replace semantics), plus per-round eviction spills (merge
	// semantics, must be carried verbatim through compaction).
	_, addrE := newTrioServer(t)
	ce := dialT(t, addrE)
	const rounds = 12
	quantTotal := 0
	cum := make([]int, rounds) // cumulative sample count after each round
	for round := 0; round < rounds; round++ {
		n := 20 + rng.Intn(60)
		keys := make([]string, n)
		ukeys := make([]uint64, n)
		vals := make([]uint64, n)
		qv := make([]float64, n)
		qk := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", rng.Intn(12))
			ukeys[i] = rng.Uint64() % 12
			vals[i] = rng.Uint64() % 5000
			qk[i] = "api"
			qv[i] = float64(quantTotal + i)
		}
		quantTotal += n
		cum[round] = quantTotal
		if err := ce.Ingest("ev", keys, vals); err != nil {
			t.Fatal(err)
		}
		if err := ce.IngestU64("dev", ukeys, vals); err != nil {
			t.Fatal(err)
		}
		if err := ce.IngestFloat("lat", qk, qv); err != nil {
			t.Fatal(err)
		}
		if err := ce.Flush(); err != nil {
			t.Fatal(err)
		}
		// Two sources shipping the same cumulative state: only the
		// latest record per (table, source) should survive compaction.
		src := fmt.Sprintf("edge-%d", round%2)
		for _, tbl := range []string{"ev", "lat", "dev"} {
			blob, err := ce.PullSnapshot(tbl)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []*server.Journal{jc, jf} {
				if _, err := j.AppendPush(tbl, src, blob); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A window ship every third round, epoch-increasing.
		if round%3 == 0 {
			blob, err := ce.PullSnapshot("ev")
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range []*server.Journal{jc, jf} {
				if _, err := j.Append(&server.JournalRecord{Type: server.JournalWindow, Table: "ev", Source: "win-0", Epoch: uint64(round + 1), Blob: blob}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// An eviction spill: merge-class, appended verbatim to both.
		_, compact, err := ce.Rollup("ev")
		if err != nil {
			t.Fatal(err)
		}
		key := []byte(fmt.Sprintf("evicted-%d", round))
		for _, j := range []*server.Journal{jc, jf} {
			if _, err := j.Append(&server.JournalRecord{Type: server.JournalEvict, Table: "ev", KeyType: wire.KeyTypeString, Key: key, Blob: compact}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := jc.Stats(); st.Compactions == 0 {
		t.Fatalf("stats = %+v: the compacting journal never compacted — the test exercised nothing", st)
	}
	if st := jf.Stats(); st.Compactions != 0 {
		t.Fatalf("control journal compacted: %+v", st)
	}

	// Replay both into fresh servers and compare every family. Theta
	// and HLL estimates are merge-order independent and must be exactly
	// equal; quantiles sample counts must be exactly equal and the
	// quantile curve statistically identical.
	srvC, addrC := newTrioServer(t)
	stC, err := srvC.ReplayJournal(dirC)
	if err != nil {
		t.Fatal(err)
	}
	srvF, addrF := newTrioServer(t)
	stF, err := srvF.ReplayJournal(dirF)
	if err != nil {
		t.Fatal(err)
	}
	if stC.Records >= stF.Records {
		t.Fatalf("compacted replay applied %d records, full %d — compaction dropped nothing", stC.Records, stF.Records)
	}
	cc, cf := dialT(t, addrC), dialT(t, addrF)
	if got, want := rollupThetaEstimate(t, cc, "ev"), rollupThetaEstimate(t, cf, "ev"); got != want {
		t.Fatalf("ev estimate: compacted %v != full %v", got, want)
	}
	if got, want := rollupHLLEstimate(t, cc, "dev"), rollupHLLEstimate(t, cf, "dev"); got != want {
		t.Fatalf("dev estimate: compacted %v != full %v", got, want)
	}
	// Each of the two alternating sources counts through its own latest
	// cumulative ship: the last round's total plus the round before it.
	wantTotal := uint64(cum[rounds-1] + cum[rounds-2])
	gotN, wantN := rollupQuantilesN(t, cc, "lat"), rollupQuantilesN(t, cf, "lat")
	if gotN != wantN || gotN != wantTotal {
		t.Fatalf("lat N: compacted %d, full %d, want both %d", gotN, wantN, wantTotal)
	}
	_, blob, err := cc.Rollup("lat")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := quantiles.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	snap := sk.Snapshot()
	eps := 4 * quantiles.NormalizedRankError(128)
	// The replayed multiset is {0..cum[last]-1} ⊎ {0..cum[prev]-1}, so
	// the true rank of a value v is 2v below cum[prev] and cum[prev]+v
	// above it — check the compacted replay's quantiles against that.
	trueRank := func(v float64) float64 {
		if v < float64(cum[rounds-2]) {
			return 2 * v
		}
		return float64(cum[rounds-2]) + v
	}
	for _, phi := range []float64{0.05, 0.5, 0.95} {
		if dev := math.Abs(trueRank(snap.Quantile(phi))/float64(wantTotal) - phi); dev > eps {
			t.Fatalf("compacted-replay q(%v) rank dev %.4f > %.4f", phi, dev, eps)
		}
	}
}

// TestJournalRecoveryCorpus is the seeded torn-write/truncation corpus
// over FCJL + FCCK recovery: a known history (cumulative pushes of
// 100·k samples, checkpoints at k=2 and k=3) is damaged in a random way
// per trial — journal truncated or bit-flipped at a random offset,
// newest checkpoint generation corrupted — and boot must always
// succeed, landing on one of the states the history actually passed
// through, never below what an intact older checkpoint generation
// guarantees.
func TestJournalRecoveryCorpus(t *testing.T) {
	// Build the canonical damaged-input source once.
	jdir, cdir := t.TempDir(), t.TempDir()
	srvA, addrA, jnl := journaledTrioServer(t, jdir)
	ca := dialT(t, addrA)
	const rounds, per = 6, 100
	for round := 1; round <= rounds; round++ {
		if err := ca.PushSnapshotFrom("lat", "edge-1", edgeLatBlob(t, 0, per*round)); err != nil {
			t.Fatal(err)
		}
		if round == 2 || round == 3 {
			if _, err := srvA.WriteCheckpoints(cdir); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}

	copyDir := func(t *testing.T, src, dst string) {
		t.Helper()
		ents, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// newestCkpt picks the highest-generation checkpoint file; the
	// generational suffix is zero-padded hex, so lexical order works.
	newestCkpt := func(t *testing.T, dir string) string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".fcck") {
				names = append(names, e.Name())
			}
		}
		if len(names) < 2 {
			t.Fatalf("want >= 2 checkpoint generations, have %v", names)
		}
		sort.Strings(names)
		return filepath.Join(dir, names[len(names)-1])
	}

	for trial := 0; trial < 24; trial++ {
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xc0de + int64(trial)))
			jd, cd := t.TempDir(), t.TempDir()
			copyDir(t, jdir, jd)
			copyDir(t, cdir, cd)

			damage := func(path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 && len(data) > 0 {
					data = data[:rng.Intn(len(data)+1)] // truncate
				} else if len(data) > 0 {
					data[rng.Intn(len(data))] ^= 0xff // bit-flip
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// Every trial damages the journal somewhere; half also lose
			// the newest checkpoint generation.
			walFile := newestJournalFile(t, jd)
			if rng.Intn(3) == 0 {
				// Sometimes hit an older journal file instead.
				ents, _ := os.ReadDir(jd)
				walFile = filepath.Join(jd, ents[rng.Intn(len(ents))].Name())
			}
			damage(walFile)
			ckptHit := rng.Intn(2) == 0
			if ckptHit {
				damage(newestCkpt(t, cd))
			}

			srvB, addrB := newTrioServer(t)
			rst, err := srvB.RestoreCheckpoints(cd)
			if err != nil {
				t.Fatalf("restore after damage: %v", err)
			}
			if ckptHit && rst.Fallbacks == 0 && rst.Tables > 0 {
				// The flip may have hit padding that still checksums?
				// No: CRC covers the whole file. A damaged newest
				// generation must either fall back or (if truncated to
				// nothing recognizable) restore the older one directly.
				t.Logf("restore stats = %+v (damaged newest generation)", rst)
			}
			if _, err := srvB.ReplayJournal(jd); err != nil {
				t.Fatalf("replay after damage: %v", err)
			}
			n := rollupQuantilesN(t, dialT(t, addrB), "lat")
			// Legal outcomes: any cumulative state the history passed
			// through, at or above the oldest retained checkpoint (200)
			// — damage only ever loses the tail, never the middle.
			if n%per != 0 || n < 2*per || n > rounds*per {
				t.Fatalf("recovered lat N = %d, want a multiple of %d in [%d, %d]", n, per, 2*per, rounds*per)
			}
		})
	}
}

// TestJournalEvictSpillDurability wires OnEvict the way fcds-serve does
// under -journal: a size-capped quantiles table spills every evicted
// key through SpillEvictString, so (a) the live server's rollup keeps
// every sample across evictions, and (b) a fresh server replaying the
// journal recovers exactly the spilled portion.
func TestJournalEvictSpillDurability(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServer(t, server.Config{})
	j, err := server.OpenJournal(dir, server.JournalConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv.AttachJournal(j)

	var evicted atomic.Int64
	qt := table.NewQuantiles(table.QuantilesConfig[string]{
		Table: table.Config[string]{
			Writers: 1, Shards: 4, MaxKeys: 8,
			OnEvict: func(key string, snapshot []byte) {
				evicted.Add(1)
				if err := srv.SpillEvictString("lat", key, snapshot); err != nil {
					t.Errorf("spill %q: %v", key, err)
				}
			},
		},
		K: 128,
	})
	t.Cleanup(qt.Close)
	if err := server.Register(srv, "lat", qt.Table); err != nil {
		t.Fatal(err)
	}

	// 32 distinct keys, 50 samples each, ingested key-by-key so every
	// key's samples are fully in its sketch before later keys evict it.
	c := dialT(t, addr)
	const keyCount, perKey = 32, 50
	for k := 0; k < keyCount; k++ {
		keys := make([]string, perKey)
		vals := make([]float64, perKey)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%02d", k)
			vals[i] = float64(k*perKey + i)
		}
		if err := c.IngestFloat("lat", keys, vals); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if evicted.Load() == 0 {
		t.Fatal("no evictions fired — the cap was never hit and the test exercised nothing")
	}
	// (a) Nothing dropped despite evictions: the spill folded every
	// evicted key's samples back into the rollup.
	if n := rollupQuantilesN(t, c, "lat"); n != keyCount*perKey {
		t.Fatalf("live lat N = %d with %d evictions, want %d (spills keep evicted data)",
			n, evicted.Load(), keyCount*perKey)
	}

	// (b) Crash: a fresh server replaying the journal holds exactly the
	// spilled samples (direct keyed ingest is checkpoint territory, not
	// the journal's).
	srvB, addrB := startServer(t, server.Config{})
	qtB := table.NewQuantiles(table.QuantilesConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 4},
		K:     128,
	})
	t.Cleanup(qtB.Close)
	if err := server.Register(srvB, "lat", qtB.Table); err != nil {
		t.Fatal(err)
	}
	st, err := srvB.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if int64(st.Records) != evicted.Load() {
		t.Fatalf("replay applied %d records, want one per eviction (%d)", st.Records, evicted.Load())
	}
	if n := rollupQuantilesN(t, dialT(t, addrB), "lat"); n != uint64(evicted.Load())*perKey {
		t.Fatalf("replayed lat N = %d, want %d (%d spilled keys x %d samples)",
			n, evicted.Load()*perKey, evicted.Load(), perKey)
	}
}

// TestJournalHealthFields: HEALTH carries the journal recovery signals
// — attached flag, replayed record count, replayed-record age — and a
// clean journaled start reports zero replayed.
func TestJournalHealthFields(t *testing.T) {
	dir := t.TempDir()
	_, addrA, _ := journaledTrioServer(t, dir)
	ca := dialT(t, addrA)
	h, err := ca.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasJournal || h.JournalReplayed != 0 || h.JournalReplayAge != 0 {
		t.Fatalf("clean journaled start health = %+v, want attached journal, zero replay", h)
	}
	if err := ca.PushSnapshotFrom("lat", "edge-1", edgeLatBlob(t, 0, 100)); err != nil {
		t.Fatal(err)
	}

	srvB, addrB := newTrioServer(t)
	if _, err := srvB.ReplayJournal(dir); err != nil {
		t.Fatal(err)
	}
	jb, err := server.OpenJournal(dir, server.JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jb.Close() })
	srvB.AttachJournal(jb)
	h, err = dialT(t, addrB).Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasJournal || h.JournalReplayed != 1 || h.JournalReplayAge <= 0 {
		t.Fatalf("post-replay health = %+v, want 1 replayed record with a positive age", h)
	}
	if records, age, ok := srvB.JournalReplay(); !ok || records != 1 || age <= 0 {
		t.Fatalf("JournalReplay = %d, %v, %v; want 1 record, positive age", records, age, ok)
	}
}
