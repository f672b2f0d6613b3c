package window

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// orderTestWindow is a 5-slot Θ window after three rotations: epochs
// 0, 1 and 2 sealed, 3 active. Key k appears in the epochs whose bit is
// set in k (1 … 15), so every combination of places is covered; per
// epoch a key gets 10, 60 or 2 000 items — flat, exact-mode concurrent,
// estimation mode (K = 64, eager limit 50).
func orderTestWindow(t testing.TB) (*Table[uint64, uint64, float64, *theta.Compact], *theta.Engine) {
	tcfg, eng := table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: 1, Shards: 8},
		K:     64, MaxError: 0.2,
	}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: 5, Width: time.Hour})
	w := wt.Writer(0)
	for e := uint64(0); e < 4; e++ {
		if e > 0 {
			wt.Drain()
			wt.Rotate()
		}
		for key := uint64(1); key < 16; key++ {
			if key>>e&1 == 0 {
				continue
			}
			n := []uint64{10, 60, 2000}[(key+e)%3]
			for i := uint64(0); i < n; i++ {
				w.UpdateKeyed(key, key<<40|e<<32|i)
			}
		}
	}
	wt.Drain()
	return wt, eng
}

type thetaRing = ring[uint64, float64, *theta.Compact]

// ringsOf returns every key's epoch ring. The sweep's visit only looks:
// nothing is sealed or removed.
func ringsOf(wt *Table[uint64, uint64, float64, *theta.Compact]) map[uint64]*thetaRing {
	m := make(map[uint64]*thetaRing)
	wt.t.Sweep(func(k uint64, sk core.EngineSketch[uint64, float64, *theta.Compact]) bool {
		m[k] = sk.(*thetaRing)
		return true
	})
	return m
}

func marshal(t *testing.T, c *theta.Compact) []byte {
	t.Helper()
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWindowReadsLeaveSealedCompactsUnordered: sealing an epoch, the
// lazy union of sealed epochs, per-key window queries and the window
// rollup all merge per-key compacts and need none of them in order.
func TestWindowReadsLeaveSealedCompactsUnordered(t *testing.T) {
	wt, _ := orderTestWindow(t)
	defer wt.Close()
	rings := ringsOf(wt)
	check := func(when string) {
		t.Helper()
		n := 0
		for k, r := range rings {
			for _, s := range r.sealed {
				n++
				if s.c.IsOrdered() {
					t.Errorf("%s: key %d sealed epoch %d is ordered (%d samples)", when, k, s.epoch, s.c.Retained())
				}
			}
		}
		if n != 24 { // 8 keys have each of bits 0, 1, 2
			t.Fatalf("%d sealed compacts, want 24", n)
		}
	}
	check("after Rotate")
	wt.RollupWindow()
	for key := uint64(0); key < 17; key++ {
		wt.QueryWindow(key)
	}
	check("after RollupWindow and QueryWindow")
}

// TestMergeSealedOrderedInputsMatchUnordered: a key's union of sealed
// epochs built from ordered compacts (each union stops early) is the
// union built from the same compacts unordered, and so is the window
// rollup over it.
func TestMergeSealedOrderedInputsMatchUnordered(t *testing.T) {
	wt, _ := orderTestWindow(t)
	defer wt.Close()
	rings := ringsOf(wt)
	unions := func() map[uint64]*theta.Compact {
		m := make(map[uint64]*theta.Compact)
		for k, r := range rings {
			r.union.Store(nil)
			if u, ok := r.sealedUnion(); ok && len(r.sealed) > 1 {
				m[k] = u
			}
		}
		return m
	}
	unordered := unions()
	unorderedRollup := marshal(t, wt.RollupWindow())
	for _, r := range rings {
		for _, s := range r.sealed {
			s.c.Hashes()
		}
	}
	ordered := unions()
	if len(ordered) != 8 || len(unordered) != 8 { // keys with two or three of bits 0-2
		t.Fatalf("%d and %d keys have a merged union, want 8", len(ordered), len(unordered))
	}
	for k, o := range ordered {
		u := unordered[k]
		if o.Theta() != u.Theta() || !slices.Equal(o.Hashes(), u.Hashes()) {
			t.Errorf("key %d: ordered inputs gave Θ=%d/%d samples, unordered Θ=%d/%d",
				k, o.Theta(), o.Retained(), u.Theta(), u.Retained())
		}
	}
	if !bytes.Equal(marshal(t, wt.RollupWindow()), unorderedRollup) {
		t.Error("window rollup differs between ordered and unordered sealed epochs")
	}
}

// TestCompactWindowKeyMergesOnlyWhenNeeded: a key in one epoch gets that
// epoch's compact, unmerged; a key in several gets their union; a miss
// costs no allocation.
func TestCompactWindowKeyMergesOnlyWhenNeeded(t *testing.T) {
	wt, eng := orderTestWindow(t)
	defer wt.Close()
	rings := ringsOf(wt)

	// Keys 1, 2 and 4 are each in one sealed epoch: its own compact.
	for _, key := range []uint64{1, 2, 4} {
		want := rings[key].sealed[0].c
		if got, ok := wt.CompactWindowKey(key); !ok || got != want {
			t.Errorf("key %d in one sealed epoch: got %p (ok=%v), want the epoch's compact %p", key, got, ok, want)
		}
	}
	// Key 8 is in the active epoch only.
	want := rings[8].live.Compact()
	got, ok := wt.CompactWindowKey(8)
	if !ok || !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Error("key 8: window compact differs from its active epoch's compact")
	}
	if q, _ := wt.QueryWindow(8); q != want.Estimate() {
		t.Errorf("key 8: QueryWindow = %v, its one epoch says %v", q, want.Estimate())
	}
	// Key 15 is everywhere: the union of all four epochs.
	u := eng.NewAggregator()
	for _, s := range rings[15].sealed {
		_ = u.Add(s.c)
	}
	_ = u.Add(rings[15].live.Compact())
	if got, ok := wt.CompactWindowKey(15); !ok || !bytes.Equal(marshal(t, got), marshal(t, u.Result())) {
		t.Error("key in four epochs: window compact is not the union of the four")
	}

	if _, ok := wt.CompactWindowKey(99); ok {
		t.Fatal("key 99 found")
	}
	if n := testing.AllocsPerRun(100, func() { wt.QueryWindow(99) }); n != 0 {
		t.Errorf("QueryWindow of an absent key allocates %v times, want 0", n)
	}
}
