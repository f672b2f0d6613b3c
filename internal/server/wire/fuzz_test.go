package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// fuzzMaxFrame bounds the fuzzed reader's payloads: larger than its
// 4 KiB window, so both Next paths run, and small enough that a length
// prefix claiming it costs little.
const fuzzMaxFrame = 64 << 10

// FuzzFrameReader feeds arbitrary bytes, as a connection would deliver
// them, through a FrameReader with the smallest window (4 KiB) and a
// small maxFrame, calling Next until it fails: frames that fit the
// window are peeked in place, larger ones spill into the owned buffer.
// The committed corpus (testdata/fuzz/FuzzFrameReader) holds pipelined
// keyed batches, a frame larger than the window, a frame with flag bit
// 0 set (returned raw) and a header claiming a 4 GiB payload. Whatever
// the input: no panic; every frame Next returns re-encodes (PutHeader
// and the payload) to exactly the bytes it consumed, in order; and the
// reader allocates no more than a small multiple of the input or of
// maxFrame.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := NewFrameReader(bytes.NewReader(in), 4<<10, fuzzMaxFrame)
		off := 0
		for {
			version, typ, flags, payload, err := fr.Next()
			if err != nil {
				break
			}
			var hdr [HeaderSize]byte
			PutHeader(hdr[:], version, typ, flags, len(payload))
			end := off + HeaderSize + len(payload)
			if end > len(in) || !bytes.Equal(in[off:off+HeaderSize], hdr[:]) || !bytes.Equal(in[off+HeaderSize:end], payload) {
				t.Fatalf("frame at offset %d (%d payload bytes) does not re-encode to the bytes it consumed", off, len(payload))
			}
			off = end
		}
		runtime.ReadMemStats(&after)
		// The window and the spill buffer (at most 1.5 × maxFrame, or
		// the window), and whatever the runtime allocated meanwhile.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(in)+4*fuzzMaxFrame)+1<<18 {
			t.Fatalf("%d input bytes made the reader allocate %d", len(in), grew)
		}
	})
}
