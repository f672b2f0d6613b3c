package server_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// TestWireIngestMatchesItemAtATime: the same seeded stream — hot keys far
// above K, so the server's table writer filters most of it in pass 1 —
// sent as KEYED_BATCH and as KEYED_STRING_BATCH frames, to uint64- and
// string-keyed tables, leaves every per-key compact byte-identical to
// that of an in-process table fed one item at a time. Every frame
// reaches the table a block at a time, raw values through BatchAddRun
// and string items, hashed by the server, through BatchAddHashed; a
// value hashed twice, or not at all, on either fails here.
func TestWireIngestMatchesItemAtATime(t *testing.T) {
	const n, chunk, nkeys = 40_000, 1000, 30
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, nkeys-1)
	ukeys, skeys := make([]uint64, n), make([]string, n)
	vals, items := make([]uint64, n), make([]string, n)
	for i := range ukeys {
		ukeys[i] = zipf.Uint64()
		skeys[i] = fmt.Sprintf("tenant-%d", ukeys[i])
		vals[i] = rng.Uint64()
		items[i] = fmt.Sprintf("item-%x", vals[i])
	}
	// No eager phase: where a flat key materializes depends on where its
	// runs end, which differs between frames and single items.
	cfgU := table.ThetaConfig[uint64]{Table: table.Config[uint64]{Writers: 1, Shards: 8}, K: 64, MaxError: 1, BufferSize: 4}
	cfgS := table.ThetaConfig[string]{Table: table.Config[string]{Writers: 1, Shards: 8}, K: 64, MaxError: 1, BufferSize: 4}

	// References, one item at a time: raw values through UpdateKeyed;
	// string items, for which no single-item call exists, as one-item
	// hashed batches into a table whose engine filters nowhere.
	refRaw := table.NewTheta(cfgU)
	defer refRaw.Close()
	tcfg, eng := cfgU.Engine()
	refStr := table.New[uint64](tcfg, core.Engine[uint64, float64, *theta.Compact](theta.NewEngine(
		theta.ConcurrentConfig{K: 64, Writers: 1, MaxError: 1, BufferSize: 4, DisableFiltering: true})))
	defer refStr.Close()
	for i, k := range ukeys {
		refRaw.Writer(0).UpdateKeyed(k, vals[i])
	}
	sw := refStr.Writer(0)
	for i, k := range ukeys {
		sw.UpdateKeyedHashedBatch([]uint64{k}, []uint64{eng.HashString(items[i])})
	}
	refRaw.Drain()
	refStr.Drain()
	want := func(ref *table.Table[uint64, uint64, float64, *theta.Compact], k uint64) []byte {
		c, ok := ref.CompactKey(k)
		if !ok {
			return nil
		}
		b, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	s, addr := startServer(t, server.Config{})
	tabs := map[string]interface{ Stats() table.Stats }{}
	for _, name := range []string{"u-raw", "u-str"} {
		tab := table.NewTheta(cfgU)
		t.Cleanup(tab.Close)
		if err := server.Register(s, name, tab.Table); err != nil {
			t.Fatal(err)
		}
		tabs[name] = tab
	}
	for _, name := range []string{"s-raw", "s-str"} {
		tab := table.NewTheta(cfgS)
		t.Cleanup(tab.Close)
		if err := server.Register(s, name, tab.Table); err != nil {
			t.Fatal(err)
		}
		tabs[name] = tab
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for off := 0; off < n; off += chunk {
		end := off + chunk
		for _, err := range []error{
			c.IngestU64("u-raw", ukeys[off:end], vals[off:end]),
			c.IngestStringsU64("u-str", ukeys[off:end], items[off:end]),
			c.Ingest("s-raw", skeys[off:end], vals[off:end]),
			c.IngestStrings("s-str", skeys[off:end], items[off:end]),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, tab := range tabs {
		// A snapshot pull drains the table: everything acknowledged
		// above is in the compacts queried below.
		if _, err := c.PullSnapshot(name); err != nil {
			t.Fatal(err)
		}
		ref := refRaw.Table
		if name == "u-str" || name == "s-str" {
			ref = refStr
		}
		for k := uint64(0); k < nkeys; k++ {
			var blob []byte
			var found bool
			if name[0] == 'u' {
				_, blob, found, err = c.QueryCompactU64(name, k)
			} else {
				_, blob, found, err = c.QueryCompact(name, fmt.Sprintf("tenant-%d", k))
			}
			if err != nil {
				t.Fatal(err)
			}
			if w := want(ref, k); found != (w != nil) || !bytes.Equal(blob, w) {
				t.Errorf("%s key %d: compact differs from the item-at-a-time table's (found=%v)", name, k, found)
			}
		}
		if st := tab.Stats(); st.Prefiltered < n/2 {
			t.Errorf("%s: only %d of %d items prefiltered; the frames did not exercise the filter", name, st.Prefiltered, n)
		}
	}
}
