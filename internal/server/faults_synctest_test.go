//go:build goexperiment.synctest

package server_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/server/faultconn"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// Fault-injection suite: every test runs in a synctest bubble, so the
// backoff schedules, idle deadlines and kill/restart interleavings
// ride virtual time — minutes of failure handling replay in
// microseconds, deterministically. Test names carry the SynctestFault
// prefix the CI server-faults lane selects on.

// faultTrio is one node's three tables plus their registrations:
// theta "ev" (string), quantiles "lat" (string), HLL "dev" (uint64).
type faultTrio struct {
	ev  *table.ThetaTable[string]
	lat *table.QuantilesTable[string]
	dev *table.HLLTable[uint64]
}

func newFaultTrio(t *testing.T, s *server.Server) *faultTrio {
	t.Helper()
	tr := &faultTrio{
		ev: table.NewTheta(table.ThetaConfig[string]{
			Table: table.Config[string]{Writers: 1, Shards: 8},
			K:     1024, MaxError: 1,
		}),
		lat: table.NewQuantiles(table.QuantilesConfig[string]{
			Table: table.Config[string]{Writers: 1, Shards: 8},
			K:     128,
		}),
		dev: table.NewHLL(table.HLLConfig[uint64]{
			Table:     table.Config[uint64]{Writers: 1, Shards: 8},
			Precision: 11,
		}),
	}
	if err := server.Register(s, "ev", tr.ev.Table); err != nil {
		t.Fatal(err)
	}
	if err := server.Register(s, "lat", tr.lat.Table); err != nil {
		t.Fatal(err)
	}
	if err := server.Register(s, "dev", tr.dev.Table); err != nil {
		t.Fatal(err)
	}
	return tr
}

func (tr *faultTrio) close() {
	tr.ev.Close()
	tr.lat.Close()
	tr.dev.Close()
}

var trioTables = []string{"ev", "lat", "dev"}

// compareRollups asserts that two servers answer every family's rollup
// identically: exact estimates for theta and HLL, exact sample count
// plus statistical quantiles for the quantiles family (merge order is
// allowed to differ). quantN is the expected total sample count; when
// uniform01 is true the quantile stream was a shuffled 0..quantN-1
// permutation and quantiles are checked against uniform ranks.
func compareRollups(t *testing.T, got, want *client.Client, quantN uint64) {
	t.Helper()
	// A snapshot pull quiesces the writer slots and drains each table,
	// so the rollups compare fully-propagated state on both sides.
	for _, tbl := range trioTables {
		if _, err := got.PullSnapshot(tbl); err != nil {
			t.Fatalf("drain %s: %v", tbl, err)
		}
		if _, err := want.PullSnapshot(tbl); err != nil {
			t.Fatalf("drain %s: %v", tbl, err)
		}
	}
	rollup := func(c *client.Client, tbl string) []byte {
		t.Helper()
		_, blob, err := c.Rollup(tbl)
		if err != nil {
			t.Fatalf("rollup %s: %v", tbl, err)
		}
		return blob
	}
	gotEv, err := theta.UnmarshalCompact(rollup(got, "ev"))
	if err != nil {
		t.Fatal(err)
	}
	wantEv, err := theta.UnmarshalCompact(rollup(want, "ev"))
	if err != nil {
		t.Fatal(err)
	}
	if gotEv.Estimate() != wantEv.Estimate() {
		t.Fatalf("ev estimate = %v, failure-free run = %v", gotEv.Estimate(), wantEv.Estimate())
	}
	_, hllEng := table.HLLConfig[uint64]{Precision: 11}.Engine()
	gotDev, err := hllEng.UnmarshalCompact(rollup(got, "dev"))
	if err != nil {
		t.Fatal(err)
	}
	wantDev, err := hllEng.UnmarshalCompact(rollup(want, "dev"))
	if err != nil {
		t.Fatal(err)
	}
	if gotDev.Estimate() != wantDev.Estimate() {
		t.Fatalf("dev estimate = %v, failure-free run = %v", gotDev.Estimate(), wantDev.Estimate())
	}
	gotLat, err := quantiles.Unmarshal(rollup(got, "lat"))
	if err != nil {
		t.Fatal(err)
	}
	wantLat, err := quantiles.Unmarshal(rollup(want, "lat"))
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := gotLat.Snapshot(), wantLat.Snapshot()
	if gs.N() != ws.N() || gs.N() != quantN {
		t.Fatalf("lat N = %d, failure-free = %d, want both %d", gs.N(), ws.N(), quantN)
	}
	eps := 4 * quantiles.NormalizedRankError(128)
	n := float64(quantN)
	for _, phi := range []float64{0.05, 0.5, 0.95} {
		if dev := math.Abs(gs.Quantile(phi)/n - phi); dev > eps {
			t.Fatalf("recovered q(%v) rank dev %.4f > %.4f", phi, dev, eps)
		}
	}
}

// TestSynctestFaultReconnectBackoffSchedule pins the reconnect
// schedule exactly: attempts spaced by MinBackoff doubling per
// failure, each stretched by at most JitterFrac, capped at MaxBackoff.
// Virtual time makes the multi-second schedule instant and exact.
func TestSynctestFaultReconnectBackoffSchedule(t *testing.T) {
	synctest.Run(func() {
		attempts := make(chan time.Time, 32)
		r, err := client.NewReliable(client.ReliableConfig{
			Dial: func() (*client.Client, error) {
				attempts <- time.Now()
				return nil, errors.New("upstream down")
			},
			MinBackoff: 100 * time.Millisecond,
			MaxBackoff: 30 * time.Second,
			JitterFrac: 0.2,
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ShipSnapshot("t", "edge", []byte{0}); err != nil {
			t.Fatal(err)
		}
		ts := make([]time.Time, 0, 8)
		for len(ts) < 8 {
			ts = append(ts, <-attempts)
		}
		r.Close()

		// First attempt is immediate; gap i is 100ms·2^(i-1), plus at
		// most 20% jitter, never past the 30s cap.
		base := 100 * time.Millisecond
		for i := 1; i < len(ts); i++ {
			gap := ts[i].Sub(ts[i-1])
			lo := base
			hi := base + base/5
			if gap < lo || gap > hi {
				t.Fatalf("gap %d = %v, want within [%v, %v]", i, gap, lo, hi)
			}
			if base *= 2; base > 30*time.Second {
				base = 30 * time.Second
			}
		}
		if st := r.Stats(); st.Dials < 8 || st.State != client.StateClosed {
			t.Fatalf("stats = %+v, want >= 8 dials and closed", st)
		}
	})
}

// TestSynctestFaultSeverEveryNthFrameNoLoss is the acceptance
// schedule's first half: every connection to the aggregator is severed
// after a fixed number of I/O ops while an edge ships cumulative
// snapshots for all three families through one Reliable. Because
// re-delivery replaces per source, the aggregator's final rollup must
// equal the edge's own table state exactly — nothing lost, nothing
// double-counted, no matter where in a frame the connection died.
func TestSynctestFaultSeverEveryNthFrameNoLoss(t *testing.T) {
	synctest.Run(func() {
		aggSrv := server.New(server.Config{})
		aggTrio := newFaultTrio(t, aggSrv)
		defer aggTrio.close()
		ln := newChanListener()
		go func() { _ = aggSrv.Serve(ln) }()
		defer aggSrv.Close()

		// The edge's tables live behind a non-listening server so
		// SnapshotTable provides the same quiesced capture fcds-serve
		// ships.
		edgeSrv := server.New(server.Config{})
		edgeTrio := newFaultTrio(t, edgeSrv)
		defer edgeTrio.close()

		var connSeq, severs atomic.Int64
		fcfg := faultconn.Config{
			Seed:          0xfa11,
			SeverAfterOps: 25,
			OnFault: func(conn int, op string, n int, fault string) {
				severs.Add(1)
			},
		}
		dial := func() (*client.Client, error) {
			cEnd, sEnd := net.Pipe()
			select {
			case ln.ch <- faultconn.Wrap(sEnd, int(connSeq.Add(1)), fcfg):
			case <-ln.done:
				cEnd.Close()
				return nil, errors.New("aggregator down")
			}
			return client.New(cEnd)
		}
		rel, err := client.NewReliable(client.ReliableConfig{
			Dial:       dial,
			MinBackoff: 10 * time.Millisecond,
			MaxBackoff: 100 * time.Millisecond,
			Seed:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rel.Close()

		rng := rand.New(rand.NewSource(0xbeef))
		const rounds, quantPerRound = 8, 400
		perm := rng.Perm(rounds * quantPerRound)
		evW, latW, devW := edgeTrio.ev.Writer(0), edgeTrio.lat.Writer(0), edgeTrio.dev.Writer(0)
		for round := 0; round < rounds; round++ {
			n := 50 + rng.Intn(200)
			keys := make([]string, n)
			ukeys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d", rng.Intn(10))
				ukeys[i] = rng.Uint64() % 10
				vals[i] = rng.Uint64() % 3000
			}
			evW.UpdateKeyedBatch(keys, vals)
			devW.UpdateKeyedBatch(ukeys, vals)
			qk := make([]string, quantPerRound)
			qv := make([]float64, quantPerRound)
			for i := range qk {
				qk[i] = "api"
				qv[i] = float64(perm[round*quantPerRound+i])
			}
			latW.UpdateKeyedBatch(qk, qv)

			for _, tbl := range trioTables {
				blob, err := edgeSrv.SnapshotTable(tbl)
				if err != nil {
					t.Fatal(err)
				}
				if err := rel.ShipSnapshot(tbl, "edge-1", blob); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(20 * time.Millisecond) // let deliveries and severs interleave
		}
		if err := rel.Drain(time.Hour); err != nil {
			t.Fatal(err)
		}
		if severs.Load() == 0 {
			t.Fatal("fault schedule never severed a connection — the test exercised nothing")
		}
		if st := rel.Stats(); st.Dials < 2 || st.Dropped != 0 {
			t.Fatalf("stats = %+v, want reconnections and zero drops", st)
		}

		// The aggregator's view (over a clean connection) equals the
		// edge's own state: compare against a rollup served straight
		// from the edge's tables.
		aggC := dialPipe(t, ln)
		defer aggC.Close()
		edgeLn := newChanListener()
		go func() { _ = edgeSrv.Serve(edgeLn) }()
		defer edgeSrv.Close()
		edgeC := dialPipe(t, edgeLn)
		defer edgeC.Close()
		compareRollups(t, aggC, edgeC, uint64(rounds*quantPerRound))
	})
}

// TestSynctestFaultKillRestartAggregatorRecovers is the acceptance
// schedule's second half: the aggregator is killed and restarted twice
// mid-run, recovering from checkpoints each time, while an edge keeps
// shipping through a Reliable and direct writers keep ingesting. The
// final recovered rollup must exactly equal a failure-free twin
// aggregator that saw the same traffic with no kills.
func TestSynctestFaultKillRestartAggregatorRecovers(t *testing.T) {
	synctest.Run(func() {
		dir := t.TempDir()

		type incarnation struct {
			srv  *server.Server
			ln   *chanListener
			trio *faultTrio
		}
		start := func() *incarnation {
			srv := server.New(server.Config{})
			trio := newFaultTrio(t, srv)
			if _, err := srv.RestoreCheckpoints(dir); err != nil {
				t.Fatalf("restore: %v", err)
			}
			ln := newChanListener()
			go func() { _ = srv.Serve(ln) }()
			return &incarnation{srv: srv, ln: ln, trio: trio}
		}
		var cur atomic.Pointer[chanListener]
		inc := start()
		cur.Store(inc.ln)

		// The failure-free twin: same traffic, never killed.
		expSrv := server.New(server.Config{})
		expTrio := newFaultTrio(t, expSrv)
		defer expTrio.close()
		expLn := newChanListener()
		go func() { _ = expSrv.Serve(expLn) }()
		defer expSrv.Close()
		expC := dialPipe(t, expLn)
		defer expC.Close()

		dial := func() (*client.Client, error) {
			ln := cur.Load()
			if ln == nil {
				return nil, errors.New("aggregator down")
			}
			cEnd, sEnd := net.Pipe()
			select {
			case ln.ch <- sEnd:
			case <-ln.done:
				cEnd.Close()
				return nil, errors.New("aggregator down")
			}
			return client.New(cEnd)
		}
		rel, err := client.NewReliable(client.ReliableConfig{
			Dial:       dial,
			MinBackoff: 10 * time.Millisecond,
			MaxBackoff: 200 * time.Millisecond,
			Seed:       11,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rel.Close()

		// Edge tables behind a snapshot-capture server, as fcds-serve
		// runs them.
		edgeSrv := server.New(server.Config{})
		edgeTrio := newFaultTrio(t, edgeSrv)
		defer edgeTrio.close()
		evW, latW, devW := edgeTrio.ev.Writer(0), edgeTrio.lat.Writer(0), edgeTrio.dev.Writer(0)

		rng := rand.New(rand.NewSource(0xdead))
		const phases, directQ, edgeQ = 3, 300, 500
		perm := rng.Perm(phases * (directQ + edgeQ))
		next := 0
		take := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(perm[next])
				next++
			}
			return out
		}

		for phase := 0; phase < phases; phase++ {
			// Direct wire ingest into the live aggregator and the twin.
			dc := dialPipe(t, cur.Load())
			n := 40 + rng.Intn(120)
			keys := make([]string, n)
			ukeys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d", rng.Intn(8))
				ukeys[i] = rng.Uint64() % 8
				vals[i] = rng.Uint64() % 2000
			}
			qk := make([]string, directQ)
			for i := range qk {
				qk[i] = "api"
			}
			qv := take(directQ)
			for _, c := range []*client.Client{dc, expC} {
				if err := c.Ingest("ev", keys, vals); err != nil {
					t.Fatal(err)
				}
				if err := c.IngestU64("dev", ukeys, vals); err != nil {
					t.Fatal(err)
				}
				if err := c.IngestFloat("lat", qk, qv); err != nil {
					t.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := dc.Close(); err != nil {
				t.Fatal(err)
			}

			// Edge ingest plus a cumulative ship of all three tables —
			// to the real aggregator through the Reliable, and to the
			// twin directly.
			eq := take(edgeQ)
			ek := make([]string, edgeQ)
			for i := range ek {
				ek[i] = "api"
			}
			latW.UpdateKeyedBatch(ek, eq)
			evW.UpdateKeyedBatch(keys, vals) // overlapping item sets are fine: sets union
			devW.UpdateKeyedBatch(ukeys, vals)
			for _, tbl := range trioTables {
				blob, err := edgeSrv.SnapshotTable(tbl)
				if err != nil {
					t.Fatal(err)
				}
				if err := rel.ShipSnapshot(tbl, "edge-1", blob); err != nil {
					t.Fatal(err)
				}
				if err := expC.PushSnapshotFrom(tbl, "edge-1", blob); err != nil {
					t.Fatal(err)
				}
			}
			if err := rel.Drain(time.Hour); err != nil {
				t.Fatalf("phase %d drain: %v", phase, err)
			}

			if phase < phases-1 {
				// Checkpoint, then KILL: server down, listener gone,
				// tables discarded. The next incarnation has only the
				// checkpoint directory.
				if _, err := inc.srv.WriteCheckpoints(dir); err != nil {
					t.Fatal(err)
				}
				cur.Store(nil)
				if err := inc.srv.Close(); err != nil {
					t.Fatal(err)
				}
				inc.ln.Close()
				inc.trio.close()
				time.Sleep(500 * time.Millisecond) // outage window
				inc = start()
				cur.Store(inc.ln)
			}
		}

		// Recovered state == failure-free state, for all three families.
		aggC := dialPipe(t, inc.ln)
		defer aggC.Close()
		defer inc.srv.Close()
		defer inc.trio.close()
		compareRollups(t, aggC, expC, uint64(phases*(directQ+edgeQ)))

		if st := rel.Stats(); st.Dials < 3 || st.Dropped != 0 || st.Delivered == 0 {
			t.Fatalf("stats = %+v, want >= 3 dials (one per incarnation), zero drops", st)
		}
	})
}

// TestSynctestFaultIdleTimeoutClosesIdleConn: with IdleTimeout set, a
// connection that stops sending frames is closed after the timeout
// while an active connection on the same server sails on.
func TestSynctestFaultIdleTimeoutClosesIdleConn(t *testing.T) {
	synctest.Run(func() {
		tab := table.NewTheta(table.ThetaConfig[string]{
			Table: table.Config[string]{Writers: 1, Shards: 8},
			K:     1024, MaxError: 1,
		})
		defer tab.Close()
		s := server.New(server.Config{IdleTimeout: time.Minute})
		if err := server.Register(s, "ev", tab.Table); err != nil {
			t.Fatal(err)
		}
		ln := newChanListener()
		go func() { _ = s.Serve(ln) }()
		defer s.Close()

		idleC := dialPipe(t, ln)
		activeC := dialPipe(t, ln)
		if _, err := idleC.Health(); err != nil {
			t.Fatal(err)
		}
		// Two minutes of virtual time; the active client keeps the
		// server busy every 30s, the idle one goes quiet.
		for i := 0; i < 4; i++ {
			time.Sleep(30 * time.Second)
			if _, err := activeC.Health(); err != nil {
				t.Fatalf("active connection died at t+%ds: %v", 30*(i+1), err)
			}
		}
		if _, err := idleC.Health(); err == nil {
			t.Fatal("idle connection survived 2 minutes with a 1-minute idle timeout")
		}
		h, err := activeC.Health()
		if err != nil {
			t.Fatal(err)
		}
		if h.Conns != 1 {
			t.Fatalf("server conns = %d, want 1 (idle one reaped)", h.Conns)
		}
	})
}

// TestSynctestFaultDialTimeoutBoundsHello: WithDialTimeout fails the
// HELLO exchange against a mute peer at exactly the configured bound
// instead of hanging forever.
func TestSynctestFaultDialTimeoutBoundsHello(t *testing.T) {
	synctest.Run(func() {
		cEnd, sEnd := net.Pipe()
		defer sEnd.Close() // a peer that accepts and then never answers
		start := time.Now()
		_, err := client.New(cEnd, client.WithDialTimeout(2*time.Second))
		if err == nil {
			t.Fatal("HELLO against a mute peer succeeded")
		}
		if elapsed := time.Since(start); elapsed < 2*time.Second || elapsed > 2*time.Second+50*time.Millisecond {
			t.Fatalf("dial failed after %v, want the 2s bound", elapsed)
		}
	})
}
