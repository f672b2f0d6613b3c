package theta

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/fcds/fcds/internal/hash"
)

// The marshalled outputs of QuickSelect, AbsorbCompact and Union for
// seeded hash streams, one sha256 per k over every case's bytes. They
// were recorded when the table grew to 4k slots: the slot layout (and
// so the order a compact's samples lie in before marshalling) may
// change, the bytes may not.
var pinQuickSelectSHA256 = map[int]string{
	16:   "b8a32486617291a395870de6bb80d1011113b48b5b190982c369d02731216e88",
	256:  "7821a79724064869877b91c34864f24686c44d20a636f6f01b6fd2093c7d05f9",
	4096: "cb710c831502898ba54d75c6bd9d23e5c4aba3271b24bd1264c819eaaec46171",
}

// pinStream returns n Θ hashes of items drawn from 4n values, so some
// repeat.
func pinStream(seed uint64, n int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b9))
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = hash.ThetaHashUint64(rng.Uint64N(uint64(4*n)), hash.DefaultSeed)
	}
	return hs
}

func pinFed(k int, hs []uint64) *QuickSelect {
	s := NewQuickSelect(k)
	for _, h := range hs {
		s.UpdateHash(h)
	}
	return s
}

// pinQuickSelectOutputs returns the marshalled bytes of each pinned
// case at k, in a fixed order.
func pinQuickSelectOutputs(t *testing.T, k int) [][]byte {
	t.Helper()
	var out [][]byte
	emit := func(c *Compact) {
		b, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	// QuickSelect after several rebuilds.
	fed := pinFed(k, pinStream(uint64(k), 16*k))
	emit(fed.Compact())

	// AbsorbCompact of an unsorted compact longer than thresh (the
	// selectKth branch), then more updates; and a compact with a lower
	// Θ absorbed into a sketch that holds samples (the Θ-lowering
	// branch).
	long := NewQuickSelect(k)
	big := pinStream(uint64(k)+1, 3*k)
	if err := long.AbsorbCompact(newCompactFromUnsorted(big, hash.MaxThetaValue, hash.DefaultSeed)); err != nil {
		t.Fatal(err)
	}
	emit(long.Compact())
	for _, h := range pinStream(uint64(k)+2, 4*k) {
		long.UpdateHash(h)
	}
	emit(long.Compact())
	partial := pinFed(k, pinStream(uint64(k)+3, k))
	if err := partial.AbsorbCompact(fed.Compact()); err != nil {
		t.Fatal(err)
	}
	emit(partial.Compact())

	// A union of several such sketches, each read through its unordered
	// compact and through the sketch itself.
	u := NewUnion(k)
	for i := uint64(0); i < 4; i++ {
		s := pinFed(k, pinStream(uint64(k)+10+i, (2+int(i))*k))
		if err := u.Add(s.Compact()); err != nil {
			t.Fatal(err)
		}
		if err := u.Add(pinFed(k, pinStream(uint64(k)+20+i, 3*k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Add(long.Compact()); err != nil {
		t.Fatal(err)
	}
	emit(u.Result())
	return out
}

func TestQuickSelectOutputPinned(t *testing.T) {
	for _, k := range []int{16, 256, 4096} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			h := sha256.New()
			for _, b := range pinQuickSelectOutputs(t, k) {
				h.Write(b)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pinQuickSelectSHA256[k] {
				t.Errorf("sha256 = %s, want %s", got, pinQuickSelectSHA256[k])
			}
		})
	}
}
