package server

import (
	"encoding/binary"
	"hash/crc32"
	"maps"
	"runtime"
	"testing"
)

// fuzzBackend is a fresh Θ backend: table "ev" of the trio's Θ
// parameters, alone on a server that is never started.
func fuzzBackend(t *testing.T) backend {
	t.Helper()
	s := New(Config{})
	tab := newBootTheta(0)
	t.Cleanup(tab.Close)
	if err := Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	return lookupT(t, s, "ev")
}

// FuzzRestoreCheckpoint feeds the checkpoint decoder arbitrary files.
// The committed corpus (testdata/fuzz/FuzzRestoreCheckpoint) holds
// WriteCheckpoints output of a Θ table — empty, the anonymous aggregate
// only, named sources with and without window epochs — and a file whose
// body claims 2^40 sources. Each input is parsed as read from disk, then
// resealed with a valid CRC so that mutations reach the body, and
// restored into a fresh Θ backend. Whatever the input: no panic; an
// error with the backend exactly as it was, or a restored state that
// checkpoints and restores again to the same per-key compact bytes; and
// never more than a small multiple of the input's size allocated — the
// counts in a body are the writer's claim and must be checked against
// the bytes before anything is sized by them.
func FuzzRestoreCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _, _ = parseCheckpoint(data)
		if len(data) < 4 {
			return
		}
		sealed := append([]byte(nil), data[:len(data)-4]...)
		sealed = binary.LittleEndian.AppendUint32(sealed, crc32.ChecksumIEEE(sealed))
		b := fuzzBackend(t)
		fresh := stateOf(t, b)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, lsn, body, err := parseCheckpoint(sealed)
		if err == nil {
			err = b.restoreBody(body, lsn)
		}
		runtime.ReadMemStats(&after)
		// Decoded compacts, their keys and the snapshot maps presized from
		// counts bounded by the body, plus whatever the runtime allocated
		// meanwhile.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(32*len(sealed))+1<<18 {
			t.Fatalf("%d input bytes made the restore allocate %d", len(sealed), grew)
		}
		if err != nil {
			if !maps.Equal(stateOf(t, b), fresh) {
				t.Fatalf("a rejected checkpoint (%v) changed the backend", err)
			}
			return
		}

		again, againLSN, err := b.checkpointBody(nil)
		if err != nil {
			t.Fatalf("the restored state does not checkpoint: %v", err)
		}
		b2 := fuzzBackend(t)
		if err := b2.restoreBody(again, againLSN); err != nil {
			t.Fatalf("the restored state checkpoints to a body that does not restore: %v", err)
		}
		if !maps.Equal(stateOf(t, b2), stateOf(t, b)) {
			t.Fatal("a checkpoint of the restored state restores to different compacts")
		}
	})
}
