package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// fuzzJournalHead is the fuzz input's prefix before the record bytes:
// a flags byte, a 2-byte split offset and the 8-byte watermark.
const fuzzJournalHead = 1 + 2 + 8

// resealFrames walks recs as consecutive record frames and rewrites
// each complete frame's CRC, so that mutations reach the frame bodies
// instead of dying at the checksum. It stops at the first length field
// that does not fit.
func resealFrames(recs []byte) {
	for len(recs) >= jnlRecOverhead {
		n := int(binary.LittleEndian.Uint32(recs))
		if n < jnlRecOverhead-4 || n > len(recs)-4 {
			return
		}
		frame := recs[:4+n]
		binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[:len(frame)-4]))
		recs = recs[4+n:]
	}
}

// FuzzReplayJournal replays a two-file journal directory built from the
// input: byte 0 selects which of the two files get their frames
// resealed (bit 0: file 1, bit 1: file 2), bytes 1–2 split the record
// bytes after byte 11 between the files, and bytes 3–10 are the
// watermark every record at or below which counts as covered. The
// committed corpus (testdata/fuzz/FuzzReplayJournal) holds intact
// journals, a torn tail and a corrupt first frame in file 2. Whatever
// the input: no panic; every record parsed re-encodes through
// appendFrame, LSN and timestamp included, to exactly its frame; allocation at most 32× the input plus 256 KiB,
// which holds only if the first-frame read is bounded by the file's
// size; and, whenever the files keep the LSN-order invariant appends
// keep (every record of file 1 below file 2's first), replay that skips
// covered files applies exactly the records a replay of every file
// does.
func FuzzReplayJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzJournalHead {
			return
		}
		flags := data[0]
		split := int(binary.LittleEndian.Uint16(data[1:3]))
		through := binary.LittleEndian.Uint64(data[3:11])
		recs := data[fuzzJournalHead:]
		split %= len(recs) + 1
		dir := t.TempDir()
		paths := [2]string{filepath.Join(dir, journalFileName(1)), filepath.Join(dir, journalFileName(2))}
		for i, part := range [2][]byte{recs[:split], recs[split:]} {
			file := append(journalHeader(uint64(i+1)), part...)
			if flags&(1<<i) != 0 {
				resealFrames(file[jnlHeaderSize:])
			}
			if err := os.WriteFile(paths[i], file, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// applied lists each record above the watermark a replay hands
		// over: its LSN and the CRC of its whole frame.
		replay := func(floor uint64) []string {
			var applied []string
			if _, err := replayJournalDir(dir, floor, func(rec *JournalRecord, _ *JournalReplayStats) error {
				if rec.LSN > through {
					applied = append(applied, fmt.Sprintf("%d:%08x", rec.LSN, crc32.ChecksumIEEE(rec.frame)))
				}
				return nil
			}, nil); err != nil {
				t.Fatal(err)
			}
			return applied
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		skipping := replay(through)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(32*len(data))+256<<10 {
			t.Fatalf("%d input bytes made the replay allocate %d", len(data), grew)
		}

		// One encoder, the parser's exact inverse: every record either
		// file yields re-encodes to the bytes it was read from.
		for _, path := range paths {
			_ = walkJournalFile(path, func(rec *JournalRecord) error {
				if got := rec.appendFrame(nil); !bytes.Equal(got, rec.frame) {
					t.Fatalf("lsn %d re-encodes to %x, read from %x", rec.LSN, got, rec.frame)
				}
				return nil
			}, nil)
		}

		first, ok := firstRecordLSN(paths[1])
		ordered := true
		_ = walkJournalFile(paths[0], func(rec *JournalRecord) error {
			ordered = ordered && (!ok || rec.LSN < first)
			return nil
		}, nil)
		if !ordered {
			return // appends never write this directory; the skip may differ
		}
		if full := replay(0); !slices.Equal(skipping, full) {
			t.Fatalf("watermark %d: the skipping replay applied %v, the full replay %v", through, skipping, full)
		}
	})
}
