package server_test

import (
	"math/rand"
	"testing"

	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/table"
)

// TestCheckpointParallelMatchesSerial pins the read-path degree out of
// the durability format: two servers fed the identical stream — one
// with serial-read tables (ReadParallelism 1), one fanned out
// (ReadParallelism 8) — must write checkpoints that restore to the
// same state. The server-level per-table fan-out in WriteCheckpoints
// is exercised on both (it always runs); the table-level capture
// degree is what differs.
func TestCheckpointParallelMatchesSerial(t *testing.T) {
	newServer := func(readPar int) (*server.Server, string) {
		s, addr := startServer(t, server.Config{})
		tt := table.NewTheta(table.ThetaConfig[string]{
			Table: table.Config[string]{Writers: 2, Shards: 16, ReadParallelism: readPar},
			K:     1024, MaxError: 1,
		})
		t.Cleanup(tt.Close)
		if err := server.Register(s, "ev", tt.Table); err != nil {
			t.Fatal(err)
		}
		qt := table.NewQuantiles(table.QuantilesConfig[string]{
			Table: table.Config[string]{Writers: 2, Shards: 16, ReadParallelism: readPar},
			K:     128,
		})
		t.Cleanup(qt.Close)
		if err := server.Register(s, "lat", qt.Table); err != nil {
			t.Fatal(err)
		}
		ht := table.NewHLL(table.HLLConfig[uint64]{
			Table:     table.Config[uint64]{Writers: 2, Shards: 16, ReadParallelism: readPar},
			Precision: 11,
		})
		t.Cleanup(ht.Close)
		if err := server.Register(s, "dev", ht.Table); err != nil {
			t.Fatal(err)
		}
		return s, addr
	}

	feed := func(c *client.Client) {
		rng := rand.New(rand.NewSource(0xfeed))
		for batch := 0; batch < 12; batch++ {
			n := 1 + rng.Intn(300)
			skeys := make([]string, n)
			ukeys := make([]uint64, n)
			vals := make([]uint64, n)
			fs := make([]float64, n)
			for i := range vals {
				skeys[i] = "key-" + string(rune('a'+rng.Intn(24)))
				ukeys[i] = rng.Uint64() % 24
				vals[i] = rng.Uint64() % 50000
				fs[i] = float64(vals[i])
			}
			if err := c.Ingest("ev", skeys, vals); err != nil {
				t.Fatal(err)
			}
			if err := c.IngestU64("dev", ukeys, vals); err != nil {
				t.Fatal(err)
			}
			if err := c.IngestFloat("lat", skeys, fs); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, tbl := range []string{"ev", "lat", "dev"} {
			if _, err := c.PullSnapshot(tbl); err != nil {
				t.Fatal(err)
			}
		}
	}

	srvSerial, addrSerial := newServer(1)
	srvParallel, addrParallel := newServer(8)
	feed(dialT(t, addrSerial))
	feed(dialT(t, addrParallel))

	dirSerial, dirParallel := t.TempDir(), t.TempDir()
	stS, err := srvSerial.WriteCheckpoints(dirSerial)
	if err != nil {
		t.Fatal(err)
	}
	stP, err := srvParallel.WriteCheckpoints(dirParallel)
	if err != nil {
		t.Fatal(err)
	}
	if stS.Tables != 3 || stP.Tables != 3 {
		t.Fatalf("checkpoint stats: serial %+v, parallel %+v, want 3 tables each", stS, stP)
	}
	if stS.Bytes != stP.Bytes {
		t.Fatalf("checkpoint sizes differ: serial %d bytes, parallel %d", stS.Bytes, stP.Bytes)
	}

	// Restore each image into a fresh default server; identical state
	// must answer identically (order-insensitive families exactly, the
	// coin-dependent quantiles family by count).
	restoreAndRead := func(dir string) (ev, dev float64, latN uint64) {
		srv, addr := newServer(0)
		st, err := srv.RestoreCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tables != 3 {
			t.Fatalf("restore stats = %+v, want 3 tables", st)
		}
		c := dialT(t, addr)
		return rollupThetaEstimate(t, c, "ev"), rollupHLLEstimate(t, c, "dev"), rollupQuantilesN(t, c, "lat")
	}
	evS, devS, latS := restoreAndRead(dirSerial)
	evP, devP, latP := restoreAndRead(dirParallel)
	if evS != evP {
		t.Fatalf("restored theta estimates differ: serial %v, parallel %v", evS, evP)
	}
	if devS != devP {
		t.Fatalf("restored HLL estimates differ: serial %v, parallel %v", devS, devP)
	}
	if latS != latP {
		t.Fatalf("restored quantiles N differ: serial %d, parallel %d", latS, latP)
	}
}
