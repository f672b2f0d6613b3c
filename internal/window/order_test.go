package window

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// orderTestWindow is a 5-slot Θ window after four rotations: epochs 0
// and 1 sealed, 2 draining, 3 active. Key k appears in the epochs whose
// bit is set in k (1 … 15), so every combination of places is covered;
// per epoch a key gets 10, 60 or 2 000 items — flat, exact-mode
// concurrent, estimation mode (K = 64, eager limit 50).
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

func marshal(t *testing.T, c *theta.Compact) []byte {
	t.Helper()
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWindowReadsLeaveSealedCompactsUnordered: sealing an epoch, the
// lazy sealed aggregate, per-key window queries and the window rollup
// all merge per-key compacts and need none of them in order.
func TestWindowReadsLeaveSealedCompactsUnordered(t *testing.T) {
	wt, _ := orderTestWindow(t)
	defer wt.Close()
	v := wt.view.Load()
	if len(v.sealed) != 2 {
		t.Fatalf("%d sealed epochs, want 2", len(v.sealed))
	}
	check := func(when string) {
		t.Helper()
		n := 0
		for e, s := range v.sealed {
			s.ForEach(func(k uint64, c *theta.Compact) {
				n++
				if c.IsOrdered() {
					t.Errorf("%s: sealed epoch %d key %d is ordered (%d samples)", when, e, k, c.Retained())
				}
			})
		}
		if n != 16 { // 8 keys have bit 0, 8 have bit 1
			t.Fatalf("%d sealed compacts, want 16", n)
		}
	}
	check("after Rotate")
	wt.RollupWindow()
	for key := uint64(0); key < 17; key++ {
		wt.QueryWindow(key)
	}
	check("after RollupWindow and QueryWindow")
}

// TestMergeSealedOrderedInputsMatchUnordered: the sealed aggregate
// built from ordered per-key compacts (each union stops early) is key
// by key the aggregate built from the same compacts unordered, and so
// is the window rollup over it.
func TestMergeSealedOrderedInputsMatchUnordered(t *testing.T) {
	wt, eng := orderTestWindow(t)
	defer wt.Close()
	v := wt.view.Load()
	rollup := func(s *table.TableSnapshot[uint64, *theta.Compact]) []byte {
		agg := eng.NewAggregator()
		s.ForEach(func(_ uint64, c *theta.Compact) { _ = agg.Add(c) })
		return marshal(t, agg.Result())
	}
	unordered := wt.mergeSealed(v.sealed)
	unorderedRollup := rollup(unordered)
	for _, s := range v.sealed {
		s.ForEach(func(_ uint64, c *theta.Compact) { c.Hashes() })
	}
	ordered := wt.mergeSealed(v.sealed)
	if ordered.Len() != 12 || unordered.Len() != 12 { // keys with bit 0 or bit 1
		t.Fatalf("aggregates hold %d and %d keys, want 12", ordered.Len(), unordered.Len())
	}
	ordered.ForEach(func(k uint64, o *theta.Compact) {
		u, ok := unordered.Get(k)
		if !ok || o.Theta() != u.Theta() || !slices.Equal(o.Hashes(), u.Hashes()) {
			t.Errorf("key %d: ordered inputs gave Θ=%d/%d samples, unordered Θ=%d/%d",
				k, o.Theta(), o.Retained(), u.Theta(), u.Retained())
		}
	})
	if !bytes.Equal(rollup(ordered), unorderedRollup) {
		t.Error("rollup over the aggregate differs between ordered and unordered inputs")
	}
}

// TestCompactWindowKeyMergesOnlyWhenNeeded: a key in one place gets
// that place's compact, unmerged; a key in several gets their union; a
// miss costs no allocation.
func TestCompactWindowKeyMergesOnlyWhenNeeded(t *testing.T) {
	wt, eng := orderTestWindow(t)
	defer wt.Close()
	v := wt.view.Load()
	sealed := v.aggregate(wt)

	// Key 1 is in epoch 0 only: the sealed aggregate's own compact.
	want, _ := sealed.Get(1)
	if got, ok := wt.CompactWindowKey(1); !ok || got != want {
		t.Errorf("sealed-only key: got %p (ok=%v), want the aggregate's compact %p", got, ok, want)
	}
	// Key 4 is in the draining epoch only, key 8 in the active one.
	for key, tab := range map[uint64]*table.Table[uint64, uint64, float64, *theta.Compact]{4: v.draining, 8: v.active} {
		want, _ := tab.CompactKey(key)
		got, ok := wt.CompactWindowKey(key)
		if !ok || !bytes.Equal(marshal(t, got), marshal(t, want)) {
			t.Errorf("key %d: window compact differs from its one epoch's compact", key)
		}
		if q, _ := wt.QueryWindow(key); q != want.Estimate() {
			t.Errorf("key %d: QueryWindow = %v, its one epoch says %v", key, q, want.Estimate())
		}
	}
	// Key 15 is everywhere: the union of all three places.
	u := eng.NewAggregator()
	c, _ := sealed.Get(15)
	_ = u.Add(c)
	c, _ = v.draining.CompactKey(15)
	_ = u.Add(c)
	c, _ = v.active.CompactKey(15)
	_ = u.Add(c)
	if got, ok := wt.CompactWindowKey(15); !ok || !bytes.Equal(marshal(t, got), marshal(t, u.Result())) {
		t.Error("key in three places: window compact is not the union of the three")
	}

	if _, ok := wt.CompactWindowKey(99); ok {
		t.Fatal("key 99 found")
	}
	if n := testing.AllocsPerRun(100, func() { wt.QueryWindow(99) }); n != 0 {
		t.Errorf("QueryWindow of an absent key allocates %v times, want 0", n)
	}
}
