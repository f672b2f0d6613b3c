package server_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// These property tests pin the end-to-end two-node distributed-
// aggregation path: keyed ingest over loopback into node A, local
// ingest on node B, SNAPSHOT_PULL from A, SNAPSHOT_PUSH into B — B's
// merged rollup and per-key queries must answer exactly like one table
// that ingested everything directly. Every trial is seeded, so
// failures reproduce.

// twoNodes starts two servers, A and B, registers a table on each via
// reg, connects a client to each, and returns the clients.
func twoNodes(t *testing.T, reg func(s *server.Server) error) (ca, cb *client.Client) {
	t.Helper()
	for i := 0; i < 2; i++ {
		s, addr := startServer(t, server.Config{})
		if err := reg(s); err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if i == 0 {
			ca = c
		} else {
			cb = c
		}
	}
	return ca, cb
}

// TestRoundTripTheta: string-keyed Θ tables. Θ compacts are
// deterministic functions of the per-key item sets, so after the
// snapshot ships, B's merged answers equal the direct table's exactly.
func TestRoundTripTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e12e))
	newTab := func() *table.ThetaTable[string] {
		tab := table.NewTheta(table.ThetaConfig[string]{
			Table: table.Config[string]{Writers: 2, Shards: 16},
			K:     1024, MaxError: 1,
		})
		t.Cleanup(tab.Close)
		return tab
	}
	tabs := []*table.ThetaTable[string]{newTab(), newTab()}
	i := 0
	ca, cb := twoNodes(t, func(s *server.Server) error {
		tab := tabs[i]
		i++
		return server.Register(s, "ev", tab.Table)
	})
	direct := newTab()
	dw := direct.Writer(0)

	const keySpace = 24
	keyOf := func(i uint64) string { return fmt.Sprintf("key-%02d", i) }

	// Node A ingests over the wire; node B ingests its own local share;
	// the direct table sees both streams.
	for batch := 0; batch < 30; batch++ {
		n := 1 + rng.Intn(200)
		keys := make([]string, n)
		vals := make([]uint64, n)
		for j := range keys {
			keys[j] = keyOf(rng.Uint64() % keySpace)
			vals[j] = rng.Uint64() % 5000 // overlap across batches and nodes
		}
		target := ca
		if batch%3 == 2 {
			target = cb
		}
		if err := target.Ingest("ev", keys, vals); err != nil {
			t.Fatal(err)
		}
		dw.UpdateKeyedBatch(keys, vals)

		// Some string-item traffic through the same keys.
		if batch%5 == 0 {
			sk := []string{keyOf(rng.Uint64() % keySpace), keyOf(rng.Uint64() % keySpace)}
			items := []string{fmt.Sprintf("it-%d", rng.Intn(3000)), fmt.Sprintf("it-%d", rng.Intn(3000))}
			if err := target.IngestStrings("ev", sk, items); err != nil {
				t.Fatal(err)
			}
			tw := direct.Writer(0)
			tw.UpdateKeyedStringBatch(sk, items)
		}
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cb.Flush(); err != nil {
		t.Fatal(err)
	}

	// Ship A's snapshot to B; pulling B's own snapshot afterwards
	// drains B's writer slots, so the rollup and per-key assertions
	// below compare fully-propagated state on both sides.
	blob, err := ca.PullSnapshot("ev")
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.PushSnapshot("ev", blob); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.PullSnapshot("ev"); err != nil {
		t.Fatal(err)
	}

	direct.Drain()

	// B's merged rollup equals direct ingest.
	_, rblob, err := cb.Rollup("ev")
	if err != nil {
		t.Fatal(err)
	}
	merged, err := theta.UnmarshalCompact(rblob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Estimate(), direct.Rollup().Estimate(); got != want {
		t.Fatalf("merged rollup = %v, direct = %v", got, want)
	}

	// Every key answers identically through B.
	for i := uint64(0); i < keySpace; i++ {
		k := keyOf(i)
		dc, ok := direct.CompactKey(k)
		_, qblob, found, err := cb.QueryCompact("ev", k)
		if err != nil {
			t.Fatal(err)
		}
		if found != ok {
			t.Fatalf("key %s: found=%v, direct ok=%v", k, found, ok)
		}
		if !ok {
			continue
		}
		qc, err := theta.UnmarshalCompact(qblob)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := qc.Estimate(), dc.Estimate(); got != want {
			t.Fatalf("key %s: merged estimate %v, direct %v", k, got, want)
		}
	}
}

// TestRoundTripHLL: uint64-keyed HLL tables (covers the uint64 key
// codec). Register-wise max is split-invariant, so equality is exact.
func TestRoundTripHLL(t *testing.T) {
	rng := rand.New(rand.NewSource(0x8c4))
	newTab := func() *table.HLLTable[uint64] {
		tab := table.NewHLL(table.HLLConfig[uint64]{
			Table:     table.Config[uint64]{Writers: 2, Shards: 16},
			Precision: 11,
		})
		t.Cleanup(tab.Close)
		return tab
	}
	tabs := []*table.HLLTable[uint64]{newTab(), newTab()}
	i := 0
	ca, cb := twoNodes(t, func(s *server.Server) error {
		tab := tabs[i]
		i++
		return server.Register(s, "dev", tab.Table)
	})
	direct := newTab()
	dw := direct.Writer(0)

	const keySpace = 12
	for batch := 0; batch < 40; batch++ {
		n := 1 + rng.Intn(400)
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for j := range keys {
			keys[j] = rng.Uint64() % keySpace
			vals[j] = rng.Uint64()
		}
		target := ca
		if batch%2 == 1 {
			target = cb
		}
		if err := target.IngestU64("dev", keys, vals); err != nil {
			t.Fatal(err)
		}
		dw.UpdateKeyedBatch(keys, vals)
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cb.Flush(); err != nil {
		t.Fatal(err)
	}

	blob, err := ca.PullSnapshot("dev")
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.PushSnapshot("dev", blob); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.PullSnapshot("dev"); err != nil { // drain B's live keys
		t.Fatal(err)
	}
	direct.Drain()

	_, rblob, err := cb.Rollup("dev")
	if err != nil {
		t.Fatal(err)
	}
	merged, err := direct.Engine().UnmarshalCompact(rblob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Estimate(), direct.Rollup().Estimate(); got != want {
		t.Fatalf("merged rollup = %v, direct = %v", got, want)
	}

	for k := uint64(0); k < keySpace; k++ {
		dc, ok := direct.CompactKey(k)
		if !ok {
			continue
		}
		_, qblob, found, err := cb.QueryCompactU64("dev", k)
		if err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v", k, found, err)
		}
		qc, err := direct.Engine().UnmarshalCompact(qblob)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := qc.Estimate(), dc.Estimate(); got != want {
			t.Fatalf("key %d: merged estimate %v, direct %v", k, got, want)
		}
	}
}

// TestRoundTripQuantiles: string-keyed quantiles tables. Merge order
// may differ from direct ingest (compaction coins), so sample counts
// must match exactly and quantiles statistically (the engine property
// test's comparison, through the wire).
func TestRoundTripQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9a41))
	const k = 128
	newTab := func() *table.QuantilesTable[string] {
		tab := table.NewQuantiles(table.QuantilesConfig[string]{
			Table: table.Config[string]{Writers: 2, Shards: 16},
			K:     k,
		})
		t.Cleanup(tab.Close)
		return tab
	}
	tabs := []*table.QuantilesTable[string]{newTab(), newTab()}
	i := 0
	ca, cb := twoNodes(t, func(s *server.Server) error {
		tab := tabs[i]
		i++
		return server.Register(s, "lat", tab.Table)
	})

	// One key, a shuffled 0..n-1 stream split across the two nodes: the
	// true φ-quantile of the union is φ·n.
	n := 4000 + rng.Intn(8000)
	perm := rng.Perm(n)
	keys := make([]string, 0, 512)
	vals := make([]float64, 0, 512)
	flushAt := func(c *client.Client) {
		if err := c.IngestFloat("lat", keys, vals); err != nil {
			t.Fatal(err)
		}
		keys, vals = keys[:0], vals[:0]
	}
	for idx, v := range perm {
		keys = append(keys, "api")
		vals = append(vals, float64(v))
		if len(keys) == 512 {
			if idx%2 == 0 {
				flushAt(ca)
			} else {
				flushAt(cb)
			}
		}
	}
	if len(keys) > 0 {
		flushAt(ca)
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cb.Flush(); err != nil {
		t.Fatal(err)
	}

	blob, err := ca.PullSnapshot("lat")
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.PushSnapshot("lat", blob); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.PullSnapshot("lat"); err != nil { // drain B's live keys
		t.Fatal(err)
	}

	_, qblob, found, err := cb.QueryCompact("lat", "api")
	if err != nil || !found {
		t.Fatalf("query: found=%v err=%v", found, err)
	}
	sk, err := quantiles.Unmarshal(qblob)
	if err != nil {
		t.Fatal(err)
	}
	snap := sk.Snapshot()
	if got := snap.N(); got != uint64(n) {
		t.Fatalf("merged sample count = %d, want %d", got, n)
	}
	eps := 4 * quantiles.NormalizedRankError(k)
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		got := snap.Quantile(phi)
		if dev := math.Abs(got/float64(n) - phi); dev > eps {
			t.Fatalf("q(%v) = %v of n=%d (rank dev %.4f > %.4f)", phi, got, n, dev, eps)
		}
	}
}
