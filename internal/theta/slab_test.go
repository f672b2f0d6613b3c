package theta

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"

	"github.com/fcds/fcds/internal/hash"
)

// slabBlobs are the serialized compacts of sketches of 0, 1, 100 and
// 100 000 items (the last in estimation mode).
func slabBlobs(t *testing.T) [][]byte {
	t.Helper()
	var blobs [][]byte
	for _, n := range []int{0, 1, 100, 100000} {
		s := NewQuickSelect(64)
		fill(s, uint64(n)<<32, uint64(n)<<32+uint64(n))
		data, err := s.Compact().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, data)
	}
	return blobs
}

// TestUnmarshalCompactsMatchesOneByOne: the slab decoder gives each
// blob the compact UnmarshalCompact gives it, ordered, re-encoding to
// the same bytes, and the compacts' samples lie in one array without
// overlapping.
func TestUnmarshalCompactsMatchesOneByOne(t *testing.T) {
	blobs := slabBlobs(t)
	got, err := UnmarshalCompacts(blobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blobs) {
		t.Fatalf("%d compacts for %d blobs", len(got), len(blobs))
	}
	var prevEnd uintptr
	for i, b := range blobs {
		want, err := UnmarshalCompact(b)
		if err != nil {
			t.Fatal(err)
		}
		c := got[i]
		if !c.IsOrdered() || c.Theta() != want.Theta() || c.Seed() != want.Seed() || c.Retained() != want.Retained() {
			t.Fatalf("blob %d: decoded Θ %d, seed %d, %d samples, want %d, %d, %d",
				i, c.Theta(), c.Seed(), c.Retained(), want.Theta(), want.Seed(), want.Retained())
		}
		if again, err := c.MarshalBinary(); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("blob %d does not re-encode to itself (%v)", i, err)
		}
		if len(c.hashes) == 0 {
			continue
		}
		if cap(c.hashes) != len(c.hashes) {
			t.Fatalf("blob %d: samples have spare capacity %d, an append would reach the next compact's", i, cap(c.hashes)-len(c.hashes))
		}
		start := uintptr(unsafe.Pointer(&c.hashes[0]))
		if prevEnd != 0 && start != prevEnd {
			t.Fatalf("blob %d: samples do not follow the previous compact's in one slab", i)
		}
		prevEnd = start + 8*uintptr(len(c.hashes))
	}
}

// TestUnmarshalCompactsRefusesWhatOneRefuses: a batch holding one blob
// that UnmarshalCompact refuses fails with the same error, and a count
// claiming far more samples than the blob holds sizes nothing by the
// claim.
func TestUnmarshalCompactsRefusesWhatOneRefuses(t *testing.T) {
	good := slabBlobs(t)[2]
	patch := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	bads := map[string][]byte{
		"short":        good[:headerSize-1],
		"magic":        patch(func(b []byte) { b[0] = 'X' }),
		"count-above":  patch(func(b []byte) { binary.LittleEndian.PutUint32(b[24:], 1<<31) }),
		"count-below":  patch(func(b []byte) { binary.LittleEndian.PutUint32(b[24:], 1) }),
		"count-zero":   patch(func(b []byte) { binary.LittleEndian.PutUint32(b[24:], 0) }),
		"unsorted":     patch(func(b []byte) { copy(b[headerSize:], b[headerSize+8:headerSize+16]) }),
		"zero-hash":    patch(func(b []byte) { binary.LittleEndian.PutUint64(b[headerSize:], 0) }),
		"above-theta":  patch(func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 2) }),
		"theta-range":  patch(func(b []byte) { binary.LittleEndian.PutUint64(b[16:], hash.MaxThetaValue+1) }),
		"reserved":     patch(func(b []byte) { b[30] = 1 }),
		"odd-trailing": append(bytes.Clone(good), 0),
	}
	for name, bad := range bads {
		_, wantErr := UnmarshalCompact(bad)
		if wantErr == nil {
			t.Fatalf("%s: UnmarshalCompact accepts the blob; the case tests nothing", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalCompacts([][]byte{good, bad, good})
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: UnmarshalCompacts = %v, UnmarshalCompact = %v", name, err, wantErr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*(2*len(good)+len(bad)))+1<<10 {
			t.Fatalf("%s: %d input bytes made the decoder allocate %d", name, 2*len(good)+len(bad), grew)
		}
	}
}

// TestCloneOwnsItsSamples: a clone of a slab compact equals it and
// shares no array with it, so keeping the clone frees the slab.
func TestCloneOwnsItsSamples(t *testing.T) {
	cs, err := UnmarshalCompacts(slabBlobs(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		cl := c.clone()
		if cl.Theta() != c.Theta() || cl.Seed() != c.Seed() || cl.IsOrdered() != c.IsOrdered() || cl.Retained() != c.Retained() {
			t.Fatalf("compact %d: the clone differs", i)
		}
		a, b := c.Hashes(), cl.Hashes()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("compact %d: sample %d differs in the clone", i, j)
			}
		}
		if len(a) > 0 && &a[0] == &b[0] {
			t.Fatalf("compact %d: the clone shares the slab", i)
		}
	}
}
