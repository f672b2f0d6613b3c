package server

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// TestReplayAheadMatchesSerial: a journal tail admitted a window ahead
// of being applied (GOMAXPROCS 4: windows of 4 records) replays exactly
// as one admitted record by record (GOMAXPROCS 1). The journal holds,
// in LSN order, a good push, a push whose blob is intact but fails
// admission (a foreign seed), a record for a table no longer
// registered, a record at or below its table's checkpoint watermark,
// and two more good pushes from other sources. Both replays give the
// same stats, which are written out below, and every table answers
// SNAPSHOT_PULL with the bytes of a server that never crashed.
func TestReplayAheadMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	crashed := bootTrio(t, Config{})
	j, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	crashed.AttachJournal(j)
	ref := bootTrio(t, Config{}) // never crashes: applies every good event live
	b1, b2, b3 := trioBlobs(t, 1, 8), trioBlobs(t, 2, 8), trioBlobs(t, 3, 8)
	live := func(name, source string, blob []byte) {
		t.Helper()
		for _, s := range []*Server{crashed, ref} {
			if _, _, err := lookupT(t, s, name).apply(JournalRecord{Type: jrecPush, Source: source, Blob: blob}); err != nil {
				t.Fatal(err)
			}
		}
	}
	journalOnly := func(name, source string, blob []byte) {
		t.Helper()
		if _, err := j.AppendPush(name, source, blob); err != nil {
			t.Fatal(err)
		}
	}

	// lsn 1: a good push the crashed server journaled but never applied,
	// so "ev" checkpoints below it.
	journalOnly("ev", "edge-1", b1["ev"])
	if _, _, err := lookupT(t, ref, "ev").apply(JournalRecord{Type: jrecPush, Source: "edge-1", Blob: b1["ev"]}); err != nil {
		t.Fatal(err)
	}
	journalOnly("ev", "edge-x", foreignThetaBlob(t)) // lsn 2: fails admission
	journalOnly("gone", "edge-1", b1["ev"])          // lsn 3: an unregistered table
	live("lat", "edge-1", b1["lat"])                 // lsn 4: covered by lat's checkpoint
	if _, err := crashed.WriteCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	live("ev", "edge-2", b2["ev"])   // lsn 5
	live("dev", "edge-3", b3["dev"]) // lsn 6
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var lastTS int64
	if _, err := replayJournalDir(dir, 0, func(rec *JournalRecord, _ *JournalReplayStats) error {
		if rec.LSN == 6 {
			lastTS = rec.TS
		}
		return nil
	}, nil); err != nil || lastTS == 0 {
		t.Fatalf("reading the journal back: %v, lsn 6 at ts %d", err, lastTS)
	}

	replay := func(procs int) (*Server, JournalReplayStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		boot := bootTrio(t, Config{})
		if _, err := boot.RestoreCheckpoints(dir); err != nil {
			t.Fatal(err)
		}
		overlapped := make(chan struct{})
		if procs > 1 {
			// The first Θ blob decode waits until a second one starts,
			// which happens only if records are admitted ahead.
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
		st, err := boot.ReplayJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if procs > 1 {
			select {
			case <-overlapped:
			default:
				t.Fatalf("GOMAXPROCS %d: no two records were ever admitted at once", procs)
			}
		}
		return boot, st
	}
	serial, serialSt := replay(1)
	ahead, aheadSt := replay(4)
	want := JournalReplayStats{Files: 2, Records: 3, Skipped: 1, UnknownTable: 1, Errors: 1, MaxLSN: 6, NewestTS: lastTS}
	if serialSt != want {
		t.Fatalf("serial replay stats = %+v, want %+v", serialSt, want)
	}
	if aheadSt != serialSt {
		t.Fatalf("replay ahead stats = %+v, serial replay %+v", aheadSt, serialSt)
	}
	for _, name := range trioTables {
		wantPull, err := lookupT(t, ref, name).snapshotAppend(nil)
		if err != nil {
			t.Fatal(err)
		}
		for label, s := range map[string]*Server{"serial": serial, "ahead": ahead} {
			got, err := lookupT(t, s, name).snapshotAppend(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantPull) {
				t.Fatalf("table %q: the %s replay pulls other bytes than the never-crashed server", name, label)
			}
		}
	}
}
