package theta

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzUnmarshalCompact feeds UnmarshalCompact arbitrary bytes. The
// committed corpus (testdata/fuzz/FuzzUnmarshalCompact) holds an empty,
// an exact-mode and an estimation-mode compact, one whose samples
// travelled unordered from a flat table key through a union until the
// marshal sorted them, and malformed variants of these. Whatever the
// input: no panic; an error, or a compact that marshals back to exactly
// the input (the format has one encoding per sketch, so anything else
// is rejected); and never more than a small multiple of the input's
// own size allocated — the retained count in the header is the
// sender's claim and must be checked against the body before anything
// is sized by it.
func FuzzUnmarshalCompact(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := UnmarshalCompact(b)
		var out []byte
		if err == nil {
			out, err = c.MarshalBinary()
			if err != nil {
				t.Fatalf("parsed compact does not marshal: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		// One sample array and one output buffer, each the size of the
		// input, plus the compact itself and whatever the runtime
		// allocated meanwhile.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(b))+1<<16 {
			t.Fatalf("%d input bytes made the decoder allocate %d", len(b), grew)
		}
		if out == nil {
			return
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("accepted bytes do not round-trip:\n in  %x\n out %x", b, out)
		}
		if !c.IsOrdered() || c.Retained() != (len(b)-headerSize)/8 {
			t.Fatalf("parsed compact: ordered=%v retained=%d from %d bytes", c.IsOrdered(), c.Retained(), len(b))
		}
	})
}
