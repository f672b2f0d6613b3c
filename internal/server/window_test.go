package server_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
	"github.com/fcds/fcds/internal/window"
)

// These tests pin the WINDOW_SNAPSHOT wire path: an edge running a
// windowed table ships its sealed-window snapshot with its rotation
// epoch; the upstream replaces the source's previous window only when
// the epoch has not gone backwards, so duplicate deliveries are
// idempotent and stale reordered ships never roll the window back.

// TestWindowSnapshotRoundTrip: at every epoch, the upstream's rollup
// after a WINDOW_SNAPSHOT push equals the edge window table's own
// window rollup — including epochs where old data fell off the ring,
// which only replace semantics (not merge) can track.
func TestWindowSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x71bd))
	tcfg, eng := table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 8},
		K:     1024, MaxError: 1,
	}.Engine()
	wt := window.NewTable(tcfg, eng, window.Config{Slots: 3, Width: time.Hour})
	defer wt.Close()
	w := wt.Writer(0)

	up := table.NewTheta(table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 8},
		K:     1024, MaxError: 1,
	})
	t.Cleanup(up.Close)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "evw", up.Table); err != nil {
		t.Fatal(err)
	}
	c := dialT(t, addr)

	ship := func() {
		t.Helper()
		snap, err := wt.WindowSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PushWindowSnapshot("evw", "edge-w", uint64(wt.Epoch()), blob); err != nil {
			t.Fatal(err)
		}
	}
	check := func(epoch int) {
		t.Helper()
		_, rblob, err := c.Rollup("evw")
		if err != nil {
			t.Fatal(err)
		}
		merged, err := theta.UnmarshalCompact(rblob)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := merged.Estimate(), wt.RollupWindow().Estimate(); got != want {
			t.Fatalf("epoch %d: upstream rollup = %v, edge window rollup = %v", epoch, got, want)
		}
	}

	// 7 epochs over a 3-slot ring: epochs 3+ have data expiring, so the
	// upstream view shrinks as well as grows — merge semantics would
	// monotonically accumulate and diverge.
	for e := 0; e < 7; e++ {
		n := 50 + rng.Intn(300)
		keys := make([]string, n)
		vals := make([]uint64, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("tenant-%d", rng.Intn(6))
			vals[i] = uint64(10_000*e) + rng.Uint64()%5_000
		}
		w.UpdateKeyedBatch(keys, vals)
		wt.Drain()
		ship()
		check(e)
		// Duplicate delivery of the same epoch (a reconnecting shipper
		// replaying its outbox) is idempotent.
		ship()
		check(e)
		wt.Rotate()
	}
}

// TestWindowSnapshotStaleEpochIgnored: a snapshot carrying an older
// epoch than the last applied one is acknowledged but ignored —
// delayed or reordered ships cannot roll the upstream's window back.
func TestWindowSnapshotStaleEpochIgnored(t *testing.T) {
	up := table.NewQuantiles(table.QuantilesConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 8},
		K:     128,
	})
	t.Cleanup(up.Close)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "latw", up.Table); err != nil {
		t.Fatal(err)
	}
	c := dialT(t, addr)

	tcfg, eng := table.QuantilesConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 8},
		K:     128,
	}.Engine()
	wt := window.NewTable(tcfg, eng, window.Config{Slots: 2, Width: time.Hour})
	defer wt.Close()
	w := wt.Writer(0)

	capture := func() []byte {
		t.Helper()
		snap, err := wt.WindowSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			w.UpdateKeyed("api", float64(i))
		}
		wt.Drain()
	}

	ingest(100) // epoch 0: 100 samples
	oldBlob, oldEpoch := capture(), uint64(wt.Epoch())
	wt.Rotate()
	wt.Rotate() // epoch 0 expired (Slots=2)
	ingest(40)  // epoch 2: 40 samples, the whole window
	if err := c.PushWindowSnapshot("latw", "edge-w", uint64(wt.Epoch()), capture()); err != nil {
		t.Fatal(err)
	}
	if got := rollupQuantilesN(t, c, "latw"); got != 40 {
		t.Fatalf("window N = %d, want 40", got)
	}

	// The stale epoch-0 ship arrives late: OK on the wire, no effect.
	if err := c.PushWindowSnapshot("latw", "edge-w", oldEpoch, oldBlob); err != nil {
		t.Fatalf("stale window push must be acknowledged, got %v", err)
	}
	if got := rollupQuantilesN(t, c, "latw"); got != 40 {
		t.Fatalf("after stale push: window N = %d, want 40 (stale ship must be ignored)", got)
	}

	// A DIFFERENT source's window still aggregates alongside.
	if err := c.PushWindowSnapshot("latw", "edge-w2", oldEpoch, oldBlob); err != nil {
		t.Fatal(err)
	}
	if got := rollupQuantilesN(t, c, "latw"); got != 140 {
		t.Fatalf("two-source window N = %d, want 140", got)
	}

	// An anonymous window push is rejected: without a source id there
	// is nothing to key replacement on.
	if err := c.PushWindowSnapshot("latw", "", uint64(wt.Epoch()), capture()); err == nil {
		t.Fatal("anonymous window push must be rejected")
	}

	// Sanity: the quantiles decoder agrees the wire blob is intact.
	_, blob, err := c.Rollup("latw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quantiles.Unmarshal(blob); err != nil {
		t.Fatal(err)
	}
}
