package quantiles

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzUnmarshalQuantiles feeds Unmarshal arbitrary bytes. The committed
// corpus (testdata/fuzz/FuzzUnmarshalQuantiles) holds an empty sketch,
// one with only a base buffer, one with occupied levels, and malformed
// variants: an unsorted level, a truncated payload, flags bytes with
// bits beside the empty bit (a decoder that checked only that bit
// would marshal them back without the others), and an empty header
// claiming k = 32768 (a decoder that sized its base buffer by k would
// allocate half a megabyte for 48 bytes). Whatever the input: no
// panic; an error, or a sketch that marshals back to exactly the input
// (the format has one encoding per sketch); and never more than a
// small multiple of the input's own size allocated.
func FuzzUnmarshalQuantiles(f *testing.F) {
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
		// The samples and the output buffer, each the size of the input,
		// plus the sketch itself and whatever the runtime allocated
		// meanwhile.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(b))+1<<16 {
			t.Fatalf("%d input bytes made the decoder allocate %d", len(b), grew)
		}
		if out != nil && !bytes.Equal(out, b) {
			t.Fatalf("accepted bytes do not round-trip:\n in  %x\n out %x", b, out)
		}
	})
}
