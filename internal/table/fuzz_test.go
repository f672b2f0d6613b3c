package table

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// FuzzUnmarshalSnapshot feeds the FCTB decoder arbitrary bytes — what
// SNAPSHOT_PUSH and WINDOW_SNAPSHOT hand it off the network. The first
// input byte picks the family and key type (Θ, quantiles, HLL, each
// string- or uint64-keyed), the rest is the image; the seeds are real
// images of small tables of all six kinds. Whatever the input: no
// panic; an error, or a snapshot whose AppendBinary decodes to the same
// keys with the same per-key bytes and then encodes to itself; and the
// decoder never allocates more than a small multiple of the input's
// size.
func FuzzUnmarshalSnapshot(f *testing.F) {
	for mode, img := range seedImages(f) {
		f.Add(append([]byte{byte(mode)}, img...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		mode, data := in[0]%6, in[1:]
		switch mode {
		case 0:
			checkSnapshotDecode(t, data, UnmarshalThetaSnapshot[string])
		case 1:
			checkSnapshotDecode(t, data, UnmarshalThetaSnapshot[uint64])
		case 2:
			checkSnapshotDecode(t, data, UnmarshalQuantilesSnapshot[string])
		case 3:
			checkSnapshotDecode(t, data, UnmarshalQuantilesSnapshot[uint64])
		case 4:
			checkSnapshotDecode(t, data, UnmarshalHLLSnapshot[string])
		case 5:
			checkSnapshotDecode(t, data, UnmarshalHLLSnapshot[uint64])
		}
	})
}

// seedImages returns one FCTB image per fuzz mode, each from a small
// live table: two keys past the eager phase and a tail of one-update
// keys.
func seedImages(f *testing.F) [6][]byte {
	cfgS, cfgU := Config[string]{Shards: 4}, Config[uint64]{Shards: 4}
	ts, tu := NewTheta(ThetaConfig[string]{Table: cfgS, K: 16}), NewTheta(ThetaConfig[uint64]{Table: cfgU, K: 16})
	qs, qu := NewQuantiles(QuantilesConfig[string]{Table: cfgS, K: 4}), NewQuantiles(QuantilesConfig[uint64]{Table: cfgU, K: 4})
	hs, hu := NewHLL(HLLConfig[string]{Table: cfgS, Precision: 4}), NewHLL(HLLConfig[uint64]{Table: cfgU, Precision: 4})
	for _, c := range []interface{ Close() }{ts, tu, qs, qu, hs, hu} {
		defer c.Close()
	}
	for i := range 200 {
		k := uint64(i % 3)
		if i%3 == 2 {
			k = uint64(i) // a tail of one-update keys
		}
		ks := fmt.Sprint(k)
		ts.Table.Writer(0).UpdateKeyed(ks, uint64(i))
		tu.Table.Writer(0).UpdateKeyed(k, uint64(i))
		qs.Writer(0).UpdateKeyed(ks, float64(i))
		qu.Writer(0).UpdateKeyed(k, float64(i))
		hs.Table.Writer(0).UpdateKeyed(ks, uint64(i))
		hu.Table.Writer(0).UpdateKeyed(k, uint64(i))
	}
	var out [6][]byte
	for mode, snap := range []func() ([]byte, error){
		ts.SnapshotBinary, tu.SnapshotBinary, qs.SnapshotBinary, qu.SnapshotBinary, hs.SnapshotBinary, hu.SnapshotBinary,
	} {
		img, err := snap()
		if err != nil {
			f.Fatal(err)
		}
		out[mode] = img
	}
	return out
}

// checkSnapshotDecode is FuzzUnmarshalSnapshot's property for one
// family and key type.
func checkSnapshotDecode[K Key, C any](t *testing.T, data []byte, unmarshal func([]byte) (*TableSnapshot[K, C], error)) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := unmarshal(data)
	runtime.ReadMemStats(&after)
	// Per entry at least a key and a blob-length byte come in; a map
	// slot, a decoded compact and its samples go out.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(data))+1<<16 {
		t.Fatalf("%d input bytes made the decoder allocate %d", len(data), grew)
	}
	if err != nil {
		return
	}
	out, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatalf("decoded snapshot does not encode: %v", err)
	}
	s2, err := unmarshal(out)
	if err != nil {
		t.Fatalf("re-encoded image does not decode: %v", err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("re-decoded %d keys, decoded %d", s2.Len(), s.Len())
	}
	s.ForEach(func(k K, c C) {
		c2, ok := s2.Get(k)
		if !ok {
			t.Fatalf("key %v lost in the round trip", k)
		}
		b, err1 := s.codec.MarshalCompact(c)
		b2, err2 := s2.codec.MarshalCompact(c2)
		if err1 != nil || err2 != nil || !bytes.Equal(b, b2) {
			t.Fatalf("key %v: per-key bytes differ after the round trip (%v, %v)", k, err1, err2)
		}
	})
	if again, err := s2.AppendBinary(nil); err != nil || !bytes.Equal(again, out) {
		t.Fatalf("re-decoded snapshot does not encode to the same image (%v)", err)
	}
}
