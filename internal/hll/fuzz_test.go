package hll

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzUnmarshalHLL feeds Unmarshal arbitrary bytes. The committed
// corpus (testdata/fuzz/FuzzUnmarshalHLL) holds an empty sketch, a
// sparse and a saturated one at small precisions, and malformed
// variants: a register above the maximum rank, a truncated payload and
// a header with its reserved bytes set (a decoder that skipped them
// would accept it and marshal back zeros). Whatever the input: no
// panic; an error, or a sketch that marshals back to exactly the input
// (the format has one encoding per sketch); and never more than a
// small multiple of the input's own size allocated.
func FuzzUnmarshalHLL(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Unmarshal(b)
		var out []byte
		if err == nil {
			out, err = s.MarshalBinary()
			if err != nil {
				t.Fatalf("parsed sketch does not marshal: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		// The register array and the output buffer, each the size of the
		// input, plus the sketch itself and whatever the runtime allocated
		// meanwhile.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(b))+1<<16 {
			t.Fatalf("%d input bytes made the decoder allocate %d", len(b), grew)
		}
		if out != nil && !bytes.Equal(out, b) {
			t.Fatalf("accepted bytes do not round-trip:\n in  %x\n out %x", b, out)
		}
	})
}
