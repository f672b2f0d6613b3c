package table

import (
	"testing"
	"time"
)

// TestHotKeyDemotion exercises the reverse seeded-rebuild path: a key
// promoted up the ladder and then idle past CoolAfter is demoted one
// level per DemoteCooled pass, keeps its full history across every
// rebuild, and the promotion/demotion counters track the moves.
func TestHotKeyDemotion(t *testing.T) {
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{
			Writers: 1, Shards: 4,
			HotKeys: &HotKeyPolicy{HotThreshold: 512, MaxPromotions: 2, CoolAfter: time.Minute},
		},
		K: 64, MaxError: 1,
	})
	defer tab.Close()
	now := time.Now().UnixNano()
	tab.now = func() int64 { return now }
	w := tab.Writer(0)

	const hot, n = uint64(7), 2048
	keys := make([]uint64, 256)
	vals := make([]uint64, 256)
	next := uint64(0)
	for sent := 0; sent < n; sent += len(keys) {
		for i := range keys {
			keys[i] = hot
			vals[i] = next * 0x9e3779b97f4a7c15
			next++
		}
		w.UpdateKeyedBatch(keys, vals)
	}
	tab.Drain()
	if got := tab.Promotions(); got != 2 {
		t.Fatalf("promotions = %d, want 2", got)
	}
	est0, ok := tab.Estimate(hot)
	if !ok || est0 < n*0.75 || est0 > n*1.25 {
		t.Fatalf("pre-demotion estimate = %v (ok=%v), want ~%d", est0, ok, n)
	}

	// Still warm: nothing to demote.
	if got := tab.DemoteCooled(); got != 0 {
		t.Fatalf("DemoteCooled on a warm key demoted %d, want 0", got)
	}

	// Idle past CoolAfter: one level shed per pass, history preserved.
	now += 2 * time.Minute.Nanoseconds()
	if got := tab.DemoteCooled(); got != 1 {
		t.Fatalf("first DemoteCooled pass = %d, want 1", got)
	}
	if est, ok := tab.Estimate(hot); !ok || est < n*0.6 || est > n*1.4 {
		t.Fatalf("estimate after first demotion = %v (ok=%v), want ~%d", est, ok, n)
	}
	now += 2 * time.Minute.Nanoseconds()
	if got := tab.DemoteCooled(); got != 1 {
		t.Fatalf("second DemoteCooled pass = %d, want 1", got)
	}
	// Fully back at the base level: nothing left to shed.
	now += 2 * time.Minute.Nanoseconds()
	if got := tab.DemoteCooled(); got != 0 {
		t.Fatalf("DemoteCooled at base level demoted %d, want 0", got)
	}
	if got := tab.Demotions(); got != 2 {
		t.Fatalf("demotions = %d, want 2", got)
	}
	if est, ok := tab.Estimate(hot); !ok || est < n*0.6 || est > n*1.4 {
		t.Fatalf("estimate back at base level = %v (ok=%v), want ~%d", est, ok, n)
	}

	// The demoted sketch keeps ingesting and can promote again.
	for sent := 0; sent < n; sent += len(keys) {
		for i := range keys {
			keys[i] = hot
			vals[i] = next * 0x9e3779b97f4a7c15
			next++
		}
		w.UpdateKeyedBatch(keys, vals)
	}
	tab.Drain()
	if got := tab.Promotions(); got <= 2 {
		t.Fatalf("no re-promotion after demotion: promotions = %d", got)
	}
	if est, ok := tab.Estimate(hot); !ok || est < 2*n*0.6 {
		t.Fatalf("estimate after re-heating = %v (ok=%v), want ~%d", est, ok, 2*n)
	}

	// Snapshots still export base-parameter compacts after the moves.
	data, err := tab.SnapshotBinary()
	if err != nil {
		t.Fatalf("SnapshotBinary: %v", err)
	}
	snap, err := UnmarshalThetaSnapshot[uint64](data)
	if err != nil {
		t.Fatalf("UnmarshalThetaSnapshot: %v", err)
	}
	if err := snap.Merge(tab.Snapshot()); err != nil {
		t.Fatalf("snapshot self-merge after demotions: %v", err)
	}

	st := tab.Stats()
	if st.Promotions != tab.Promotions() || st.Demotions != 2 {
		t.Fatalf("Stats promotion/demotion drift: %+v", st)
	}
}

// TestDemoteCooledRecentUpdateWins pins the scan-vs-update race rule:
// a key touched after the idle scan but before the rebuild keeps its
// promoted level.
func TestDemoteCooledRecentUpdateWins(t *testing.T) {
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{
			Writers: 1, Shards: 4,
			HotKeys: &HotKeyPolicy{HotThreshold: 128, MaxPromotions: 1, CoolAfter: time.Minute},
		},
		K: 64, MaxError: 1,
	})
	defer tab.Close()
	now := time.Now().UnixNano()
	tab.now = func() int64 { return now }
	w := tab.Writer(0)
	vals := make([]uint64, 256)
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = 1
		vals[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	w.UpdateKeyedBatch(keys, vals)
	if tab.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", tab.Promotions())
	}
	// Cool it, then touch it again before demoting: the fresh update
	// moves touched past the cutoff, so the demotion must be skipped.
	now += 2 * time.Minute.Nanoseconds()
	w.UpdateKeyed(1, 42)
	if got := tab.DemoteCooled(); got != 0 {
		t.Fatalf("DemoteCooled demoted a just-touched key (%d)", got)
	}
	if tab.Demotions() != 0 {
		t.Fatalf("demotions = %d, want 0", tab.Demotions())
	}
}

// TestDemotionDisabledWithoutCoolAfter pins the opt-in: a policy with
// no CoolAfter never demotes.
func TestDemotionDisabledWithoutCoolAfter(t *testing.T) {
	tab := NewTheta(ThetaConfig[uint64]{
		Table: Config[uint64]{
			Writers: 1, Shards: 4,
			HotKeys: &HotKeyPolicy{HotThreshold: 128, MaxPromotions: 1},
		},
		K: 64, MaxError: 1,
	})
	defer tab.Close()
	now := time.Now().UnixNano()
	tab.now = func() int64 { return now }
	w := tab.Writer(0)
	keys := make([]uint64, 256)
	vals := make([]uint64, 256)
	for i := range keys {
		keys[i] = 1
		vals[i] = uint64(i)
	}
	w.UpdateKeyedBatch(keys, vals)
	now += time.Hour.Nanoseconds()
	if got := tab.DemoteCooled(); got != 0 {
		t.Fatalf("DemoteCooled with zero CoolAfter demoted %d", got)
	}
}
