package server_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// These tests pin the aggregator durability contract: WriteCheckpoints
// followed by RestoreCheckpoints into a fresh server reproduces every
// rollup exactly — including named-source replace semantics, so a
// pusher re-shipping its cumulative snapshot after the restart does
// not double-count what the checkpoint already restored.

// newTrioServer starts a server with one table per family: theta "ev"
// (string keys), quantiles "lat" (string keys), HLL "dev" (uint64
// keys).
func newTrioServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	s, addr := startServer(t, server.Config{})
	tt := table.NewTheta(table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 2, Shards: 16},
		K:     1024, MaxError: 1,
	})
	t.Cleanup(tt.Close)
	if err := server.Register(s, "ev", tt.Table); err != nil {
		t.Fatal(err)
	}
	qt := table.NewQuantiles(table.QuantilesConfig[string]{
		Table: table.Config[string]{Writers: 2, Shards: 16},
		K:     128,
	})
	t.Cleanup(qt.Close)
	if err := server.Register(s, "lat", qt.Table); err != nil {
		t.Fatal(err)
	}
	ht := table.NewHLL(table.HLLConfig[uint64]{
		Table:     table.Config[uint64]{Writers: 2, Shards: 16},
		Precision: 11,
	})
	t.Cleanup(ht.Close)
	if err := server.Register(s, "dev", ht.Table); err != nil {
		t.Fatal(err)
	}
	return s, addr
}

func dialT(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func rollupQuantilesN(t *testing.T, c *client.Client, tbl string) uint64 {
	t.Helper()
	_, blob, err := c.Rollup(tbl)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := quantiles.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	return sk.Snapshot().N()
}

func rollupThetaEstimate(t *testing.T, c *client.Client, tbl string) float64 {
	t.Helper()
	_, blob, err := c.Rollup(tbl)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := theta.UnmarshalCompact(blob)
	if err != nil {
		t.Fatal(err)
	}
	return sk.Estimate()
}

// TestCheckpointRestoreRoundTrip: direct ingest plus a named-source
// push across all three families, checkpoint, restore into a fresh
// server — every rollup matches exactly, and a re-ship of the same
// named cumulative snapshot after the restore replaces (rather than
// re-counts) the restored one.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc4e7))
	dir := t.TempDir()

	srvA, addrA := newTrioServer(t)
	ca := dialT(t, addrA)

	// Direct wire ingest into A. Quantile samples are a shuffled
	// 0..n-1 stream so the restored sketch can be checked statistically.
	const directN, edgeN = 3000, 1000
	perm := rng.Perm(directN + edgeN)
	ingestFloats := func(c *client.Client, vals []int) {
		keys := make([]string, 0, 512)
		fs := make([]float64, 0, 512)
		flush := func() {
			if err := c.IngestFloat("lat", keys, fs); err != nil {
				t.Fatal(err)
			}
			keys, fs = keys[:0], fs[:0]
		}
		for _, v := range vals {
			keys = append(keys, "api")
			fs = append(fs, float64(v))
			if len(keys) == 512 {
				flush()
			}
		}
		if len(keys) > 0 {
			flush()
		}
	}
	ingestFloats(ca, perm[:directN])
	for batch := 0; batch < 10; batch++ {
		n := 1 + rng.Intn(200)
		skeys := make([]string, n)
		ukeys := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range vals {
			skeys[i] = "key-" + string(rune('a'+rng.Intn(8)))
			ukeys[i] = rng.Uint64() % 8
			vals[i] = rng.Uint64() % 4000
		}
		if err := ca.Ingest("ev", skeys, vals); err != nil {
			t.Fatal(err)
		}
		if err := ca.IngestU64("dev", ukeys, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}

	// An "edge" node's cumulative state, pushed into A under a source
	// id so re-ships replace.
	_, addrE := newTrioServer(t)
	ce := dialT(t, addrE)
	ingestFloats(ce, perm[directN:])
	if err := ce.Flush(); err != nil {
		t.Fatal(err)
	}
	edgeLat, err := ce.PullSnapshot("lat")
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.PushSnapshotFrom("lat", "edge-1", edgeLat); err != nil {
		t.Fatal(err)
	}

	// Pulling each snapshot quiesces the writer slots and drains the
	// tables, so the rollups below (and the checkpoint) see everything.
	for _, tbl := range []string{"ev", "lat", "dev"} {
		if _, err := ca.PullSnapshot(tbl); err != nil {
			t.Fatal(err)
		}
	}
	wantEv := rollupThetaEstimate(t, ca, "ev")
	wantDev := rollupHLLEstimate(t, ca, "dev")
	if got := rollupQuantilesN(t, ca, "lat"); got != directN+edgeN {
		t.Fatalf("pre-checkpoint lat N = %d, want %d", got, directN+edgeN)
	}

	st, err := srvA.WriteCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != 3 || st.Bytes == 0 {
		t.Fatalf("write stats = %+v, want 3 tables, non-zero bytes", st)
	}

	// Fresh server, fresh tables: restore and compare.
	srvB, addrB := newTrioServer(t)
	rst, err := srvB.RestoreCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Tables != 3 || rst.Skipped != 0 {
		t.Fatalf("restore stats = %+v, want 3 tables, 0 skipped", rst)
	}
	cb := dialT(t, addrB)
	if got := rollupThetaEstimate(t, cb, "ev"); got != wantEv {
		t.Fatalf("restored ev estimate = %v, want %v", got, wantEv)
	}
	if got := rollupHLLEstimate(t, cb, "dev"); got != wantDev {
		t.Fatalf("restored dev estimate = %v, want %v", got, wantDev)
	}
	if got := rollupQuantilesN(t, cb, "lat"); got != directN+edgeN {
		t.Fatalf("restored lat N = %d, want %d", got, directN+edgeN)
	}

	// The edge re-ships its cumulative snapshot after the aggregator
	// restart: it must REPLACE the restored edge-1 snapshot, not merge
	// with it — replayed delivery cannot double-count.
	if err := cb.PushSnapshotFrom("lat", "edge-1", edgeLat); err != nil {
		t.Fatal(err)
	}
	if got := rollupQuantilesN(t, cb, "lat"); got != directN+edgeN {
		t.Fatalf("post-restore re-ship: lat N = %d, want %d (replace, not merge)", got, directN+edgeN)
	}

	// And the restored sketch still answers quantiles correctly.
	_, blob, err := cb.Rollup("lat")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := quantiles.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	snap := sk.Snapshot()
	n := float64(directN + edgeN)
	eps := 4 * quantiles.NormalizedRankError(128)
	for _, phi := range []float64{0.01, 0.5, 0.99} {
		if dev := math.Abs(snap.Quantile(phi)/n - phi); dev > eps {
			t.Fatalf("restored q(%v) rank dev %.4f > %.4f", phi, dev, eps)
		}
	}
}

// rollupHLLEstimate reads an HLL rollup estimate (the HLL compact
// decoder hangs off the table's engine, so build a throwaway one).
func rollupHLLEstimate(t *testing.T, c *client.Client, tbl string) float64 {
	t.Helper()
	_, blob, err := c.Rollup(tbl)
	if err != nil {
		t.Fatal(err)
	}
	_, eng := table.HLLConfig[uint64]{Precision: 11}.Engine()
	sk, err := eng.UnmarshalCompact(blob)
	if err != nil {
		t.Fatal(err)
	}
	return sk.Estimate()
}

// TestCheckpointRejectsCorruption: a flipped byte or a truncated file
// fails the restore loudly — half a checkpoint must never load
// silently.
func TestCheckpointRejectsCorruption(t *testing.T) {
	srvA, addrA := newTrioServer(t)
	ca := dialT(t, addrA)
	if err := ca.Ingest("ev", []string{"k"}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}

	corrupt := func(t *testing.T, mutate func(data []byte) []byte) error {
		dir := t.TempDir()
		if _, err := srvA.WriteCheckpoints(dir); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) == 0 {
			t.Fatalf("read checkpoint dir: %v (%d entries)", err, len(ents))
		}
		path := filepath.Join(dir, ents[0].Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		srvB, _ := newTrioServer(t)
		_, rerr := srvB.RestoreCheckpoints(dir)
		return rerr
	}

	t.Run("flipped-byte", func(t *testing.T) {
		err := corrupt(t, func(data []byte) []byte {
			data[len(data)/2] ^= 0xff
			return data
		})
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("restore of corrupted file = %v, want checksum error", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		err := corrupt(t, func(data []byte) []byte { return data[:10] })
		if err == nil {
			t.Fatal("restore of truncated file succeeded")
		}
	})
}

// TestCheckpointSkipsStrangersAndUnknownTables: non-checkpoint files
// in the directory are ignored, and a checkpoint for a table the new
// configuration no longer registers is skipped (counted, logged) —
// dropping a table from the config must not brick the restart.
func TestCheckpointSkipsStrangersAndUnknownTables(t *testing.T) {
	dir := t.TempDir()
	srvA, addrA := newTrioServer(t) // registers ev, lat, dev
	ca := dialT(t, addrA)
	if err := ca.Ingest("ev", []string{"a", "b"}, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.PullSnapshot("ev"); err != nil { // drain before comparing
		t.Fatal(err)
	}
	wantEv := rollupThetaEstimate(t, ca, "ev")
	if _, err := srvA.WriteCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	// Strangers: an abandoned temp file and an unrelated file.
	for _, name := range []string{"ev-00000000.fcck.tmp123", "README.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The new incarnation only registers "ev".
	srvB, addrB := startServer(t, server.Config{})
	tt := table.NewTheta(table.ThetaConfig[string]{
		Table: table.Config[string]{Writers: 2, Shards: 16},
		K:     1024, MaxError: 1,
	})
	t.Cleanup(tt.Close)
	if err := server.Register(srvB, "ev", tt.Table); err != nil {
		t.Fatal(err)
	}
	st, err := srvB.RestoreCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != 1 || st.Skipped != 2 {
		t.Fatalf("restore stats = %+v, want 1 restored, 2 skipped", st)
	}
	cb := dialT(t, addrB)
	if got := rollupThetaEstimate(t, cb, "ev"); got != wantEv {
		t.Fatalf("restored ev estimate = %v, want %v", got, wantEv)
	}

	// A missing directory is a clean first boot.
	st, err = srvB.RestoreCheckpoints(filepath.Join(dir, "never-created"))
	if err != nil || st.Tables != 0 {
		t.Fatalf("restore from missing dir = %+v, %v; want empty, nil", st, err)
	}
}

// TestCheckpointAgeInHealth: HEALTH reports zero before any
// checkpoint, and a non-zero age afterwards — the monitoring signal
// for "how much would a crash right now lose".
func TestCheckpointAgeInHealth(t *testing.T) {
	srv, addr := newTrioServer(t)
	c := dialT(t, addr)
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.CheckpointAge != 0 {
		t.Fatalf("pre-checkpoint age = %v, want 0", h.CheckpointAge)
	}
	if _, ok := srv.CheckpointAge(); ok {
		t.Fatal("CheckpointAge ok before any checkpoint")
	}
	if _, err := srv.WriteCheckpoints(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	h, err = c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.CheckpointAge <= 0 {
		t.Fatalf("post-checkpoint age = %v, want > 0", h.CheckpointAge)
	}
	if age, ok := srv.CheckpointAge(); !ok || age < 0 {
		t.Fatalf("CheckpointAge = %v, %v after checkpoint", age, ok)
	}
}
