package server_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// wireRollupSHA256 is the sha256 of TestServerRollupBytesPinned's ROLLUP
// payload, recorded when a table rollup still merged one compact per
// key.
const wireRollupSHA256 = "9e2a6ecde161f43a5478defd65e231ccd3389fee66fd0545a206e72d0101d7fe"

// TestServerRollupBytesPinned: a ROLLUP answer's blob is the union of
// the pulled snapshot's per-key compacts, byte for byte, and the bytes
// it was before table rollups read keys in place. The 30 keys are flat
// (10 items), concurrent in exact mode (60) and in estimation mode
// (3 000), ingested through one connection into a one-writer table, so
// the state is a function of the input alone.
func TestServerRollupBytesPinned(t *testing.T) {
	tab := table.NewTheta(table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 1, Shards: 16},
		K:     64, MaxError: 0.2, // eager limit 2/e² = 50
	})
	t.Cleanup(tab.Close)
	s, addr := startServer(t, server.Config{})
	if err := server.Register(s, "ev", tab.Table); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var keys []string
	var vals []uint64
	for ki := 0; ki < 30; ki++ {
		for i := 0; i < []int{10, 60, 3000}[ki%3]; i++ {
			keys = append(keys, fmt.Sprintf("k%02d", ki))
			vals = append(vals, uint64(ki)<<32|uint64(i))
		}
	}
	for off := 0; off < len(keys); off += 1024 {
		end := min(off+1024, len(keys))
		if err := c.Ingest("ev", keys[off:end], vals[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := c.PullSnapshot("ev") // drains: the rollup below is exact
	if err != nil {
		t.Fatal(err)
	}
	snap, err := table.UnmarshalThetaSnapshot[string](blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 30 {
		t.Fatalf("snapshot holds %d keys, want 30", snap.Len())
	}
	u := theta.NewUnion(64)
	snap.ForEach(func(_ string, c *theta.Compact) {
		if err := u.Add(c); err != nil {
			t.Fatal(err)
		}
	})
	want, err := u.Result().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	_, got, err := c.Rollup("ev")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("ROLLUP payload differs from the union of the pulled snapshot's compacts")
	}
	sum := sha256.Sum256(got)
	if h := hex.EncodeToString(sum[:]); h != wireRollupSHA256 {
		t.Errorf("ROLLUP payload sha256 %s, pinned %s", h, wireRollupSHA256)
	}
}
