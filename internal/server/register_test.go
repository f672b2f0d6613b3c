package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/fcds/fcds/internal/hll"
	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// TestRegisterSameTableTwiceRejected: every registration owns all of
// its table's writer handles, so one table under two names would let
// two frames drive slot i of one key's sketch at once — the
// single-writer-per-slot contract behind r = 2·N·b. The second name is
// refused, and the first keeps serving.
func TestRegisterSameTableTwiceRejected(t *testing.T) {
	tab := newThetaTable(t, 2)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	if err := server.Register(s, "ev-alias", tab.Table); err == nil {
		t.Fatal("one table registered under a second name")
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ingest("ev", []string{"k"}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Rollup("ev-alias")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrCodeUnknownTable {
		t.Fatalf("rollup of the refused name: err=%v, want ErrCodeUnknownTable", err)
	}
	if h, err := c.Health(); err != nil || h.Tables != 1 {
		t.Fatalf("health: %+v (err %v), want 1 table", h, err)
	}
}

// regFamily is one sketch family as TestRegisterFromEngine drives it:
// how to build its table, and what the server must derive from its
// engine — string items, and a seed check on pushed snapshots.
type regFamily[K table.Key, V, S, C any] struct {
	// build returns a table with the default parameter or, when wrong is
	// set, another one, hashing (or coin-flipping) under seed.
	build func(t *testing.T, seed uint64, wrong bool) *table.Table[K, V, S, C]
	val   func(i int) V
	// answer is what a rollup says. Two rollups of one state compare by
	// answer, not bytes: a parallel rollup folds quantiles keys in no
	// fixed order, and their compaction coins fall differently.
	answer  func(S) string
	strings bool
	seeded  bool
}

func estimate(e float64) string { return fmt.Sprint(e) }

func tableConfig[K table.Key]() table.Config[K] { return table.Config[K]{Writers: 2, Shards: 8} }

func thetaFamily[K table.Key]() regFamily[K, uint64, float64, *theta.Compact] {
	return regFamily[K, uint64, float64, *theta.Compact]{
		build: func(t *testing.T, seed uint64, wrong bool) *table.Table[K, uint64, float64, *theta.Compact] {
			k := 256
			if wrong {
				k = 512
			}
			tab := table.NewTheta(table.ThetaConfig[K]{Table: tableConfig[K](), K: k, Seed: seed})
			t.Cleanup(tab.Close)
			return tab.Table
		},
		val:     func(i int) uint64 { return uint64(i) },
		answer:  estimate,
		strings: true, seeded: true,
	}
}

func hllFamily[K table.Key]() regFamily[K, uint64, float64, *hll.Sketch] {
	return regFamily[K, uint64, float64, *hll.Sketch]{
		build: func(t *testing.T, seed uint64, wrong bool) *table.Table[K, uint64, float64, *hll.Sketch] {
			p := uint8(10)
			if wrong {
				p = 11
			}
			tab := table.NewHLL(table.HLLConfig[K]{Table: tableConfig[K](), Precision: p, Seed: seed})
			t.Cleanup(tab.Close)
			return tab.Table
		},
		val:     func(i int) uint64 { return uint64(i) },
		answer:  estimate,
		strings: true, seeded: true,
	}
}

func quantilesFamily[K table.Key]() regFamily[K, float64, *quantiles.Snapshot, *quantiles.Sketch] {
	return regFamily[K, float64, *quantiles.Snapshot, *quantiles.Sketch]{
		build: func(t *testing.T, seed uint64, wrong bool) *table.Table[K, float64, *quantiles.Snapshot, *quantiles.Sketch] {
			k := 32
			if wrong {
				k = 64
			}
			tab := table.NewQuantiles(table.QuantilesConfig[K]{Table: tableConfig[K](), K: k, Seed: seed})
			t.Cleanup(tab.Close)
			return tab.Table
		},
		val: func(i int) float64 { return float64(i) / 7 },
		answer: func(s *quantiles.Snapshot) string {
			return fmt.Sprint(s.N(), s.Min(), s.Max())
		},
	}
}

// TestRegisterFromEngine registers one table per family and key type
// through the one generic Register and checks, over the wire, every
// behaviour the server now reads from the engine instead of being
// handed per family: keyed batches; string items (ingested where the
// engine hashes strings, ErrCodeUnsupported on quantiles); the seed
// check on pushes (a foreign-seed snapshot is refused by Θ and HLL
// with the served state unchanged, and accepted by quantiles, whose
// seed only drives compaction coins); the header's parameter check (a
// snapshot of another K or precision is refused by all three); and
// QUERY/ROLLUP answers that equal the table's own reads once a
// SNAPSHOT_PULL has drained it.
func TestRegisterFromEngine(t *testing.T) {
	t.Run("theta/string", func(t *testing.T) { registerCell(t, thetaFamily[string]()) })
	t.Run("theta/uint64", func(t *testing.T) { registerCell(t, thetaFamily[uint64]()) })
	t.Run("hll/string", func(t *testing.T) { registerCell(t, hllFamily[string]()) })
	t.Run("hll/uint64", func(t *testing.T) { registerCell(t, hllFamily[uint64]()) })
	t.Run("quantiles/string", func(t *testing.T) { registerCell(t, quantilesFamily[string]()) })
	t.Run("quantiles/uint64", func(t *testing.T) { registerCell(t, quantilesFamily[uint64]()) })
}

const (
	regKeys      = 5
	regItems     = 400
	regSeed      = 0x5eed5eed
	regOtherSeed = 0xfeedbeef
)

func registerCell[K table.Key, V, S, C any](t *testing.T, fam regFamily[K, V, S, C]) {
	tab := fam.build(t, regSeed, false)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "t", tab); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]K, regItems)
	vals := make([]V, regItems)
	for i := range keys {
		keys[i], vals[i] = regKey[K](i%regKeys), fam.val(i)
	}
	var se *client.ServerError

	// KEYED_BATCH, then KEYED_STRING_BATCH.
	if err := ingest(c, keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("keyed batch: %v", err)
	}
	if err := ingestStrings(c, keys[:3], []string{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}
	err = c.Flush()
	switch {
	case fam.strings && err != nil:
		t.Fatalf("string items: %v", err)
	case !fam.strings && (!errors.As(err, &se) || se.Code != wire.ErrCodeUnsupported):
		t.Fatalf("string items: err=%v, want ErrCodeUnsupported", err)
	}

	// After a pull has drained the table, the wire answers are its own.
	if _, err := c.PullSnapshot("t"); err != nil {
		t.Fatal(err)
	}
	eng := tab.Engine()
	for i := 0; i < regKeys; i++ {
		k := regKey[K](i)
		_, blob, found, err := queryCompact(c, k)
		own, ok := tab.CompactKey(k)
		if err != nil || !found || !ok {
			t.Fatalf("key %v: found=%v err=%v, table has it: %v", k, found, err, ok)
		}
		if want, _ := eng.MarshalCompact(own); !bytes.Equal(blob, want) {
			t.Fatalf("key %v: QUERY answer differs from the table's compact", k)
		}
	}
	rollup := func() string {
		t.Helper()
		_, blob, err := c.Rollup("t")
		if err != nil {
			t.Fatal(err)
		}
		ru, err := eng.UnmarshalCompact(blob)
		if err != nil {
			t.Fatal(err)
		}
		return fam.answer(eng.QueryCompact(ru))
	}
	before := rollup()
	if want := fam.answer(eng.QueryCompact(tab.Rollup())); before != want {
		t.Fatalf("ROLLUP answers %s, the table's rollup %s", before, want)
	}

	// A snapshot of another parameter: refused by every family.
	other := fam.build(t, regSeed, true)
	other.Writer(0).UpdateKeyedBatch(keys, vals)
	err = c.PushSnapshotFrom("t", "edge-param", snapshotOf(t, other))
	if !errors.As(err, &se) || se.Code != wire.ErrCodeBadPayload {
		t.Fatalf("wrong-parameter push: err=%v, want ErrCodeBadPayload", err)
	}
	if got := rollup(); got != before {
		t.Fatalf("a refused wrong-parameter push changed the rollup: %s → %s", before, got)
	}

	// A snapshot under another seed: refused where the engine is seeded.
	foreign := fam.build(t, regOtherSeed, false)
	foreign.Writer(0).UpdateKeyedBatch(keys, vals)
	err = c.PushSnapshotFrom("t", "edge-seed", snapshotOf(t, foreign))
	if fam.seeded {
		if !errors.As(err, &se) || se.Code != wire.ErrCodeBadPayload {
			t.Fatalf("foreign-seed push: err=%v, want ErrCodeBadPayload", err)
		}
		if got := rollup(); got != before {
			t.Fatalf("a refused foreign-seed push changed the rollup: %s → %s", before, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("foreign-seed push: %v", err)
	}
	if got := rollup(); got == before {
		t.Fatalf("an accepted push left the rollup at %s", got)
	}
}

// regKey is the i-th test key of type K.
func regKey[K table.Key](i int) K {
	var k K
	switch p := any(&k).(type) {
	case *string:
		*p = fmt.Sprintf("key-%d", i)
	case *uint64:
		*p = uint64(i) + 1
	}
	return k
}

// ingest sends one KEYED_BATCH through the client call that fits K and V.
func ingest[K table.Key, V any](c *client.Client, keys []K, vals []V) error {
	switch ks := any(keys).(type) {
	case []string:
		switch vs := any(vals).(type) {
		case []uint64:
			return c.Ingest("t", ks, vs)
		case []float64:
			return c.IngestFloat("t", ks, vs)
		}
	case []uint64:
		switch vs := any(vals).(type) {
		case []uint64:
			return c.IngestU64("t", ks, vs)
		case []float64:
			return c.IngestFloatU64("t", ks, vs)
		}
	}
	return fmt.Errorf("no client call for %T keys and %T values", keys, vals)
}

func ingestStrings[K table.Key](c *client.Client, keys []K, items []string) error {
	if ks, ok := any(keys).([]string); ok {
		return c.IngestStrings("t", ks, items)
	}
	return c.IngestStringsU64("t", any(keys).([]uint64), items)
}

func queryCompact[K table.Key](c *client.Client, k K) (byte, []byte, bool, error) {
	if s, ok := any(k).(string); ok {
		return c.QueryCompact("t", s)
	}
	return c.QueryCompactU64("t", any(k).(uint64))
}

// snapshotOf drains an edge table and serializes it, as a shipper does.
func snapshotOf[K table.Key, V, S, C any](t *testing.T, tab *table.Table[K, V, S, C]) []byte {
	t.Helper()
	tab.Drain()
	blob, err := tab.SnapshotBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
