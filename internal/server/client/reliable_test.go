package client_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/table"
)

// startQuantilesServer runs a loopback server with one string-keyed
// quantiles table — the family whose sample counts make replace-vs-
// merge mistakes visible exactly.
func startQuantilesServer(t *testing.T, name string) (*server.Server, string) {
	t.Helper()
	tab := table.NewQuantiles(table.QuantilesConfig[string]{
		Table: table.Config[string]{Writers: 2, Shards: 16},
		K:     128,
	})
	t.Cleanup(tab.Close)
	s := server.New(server.Config{})
	if err := server.Register(s, name, tab.Table); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// quantilesBlob builds a cumulative FCTB snapshot holding n samples by
// round-tripping them through a throwaway server.
func quantilesBlob(t *testing.T, n int) []byte {
	t.Helper()
	_, addr := startQuantilesServer(t, "lat")
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = "api"
		vals[i] = float64(i)
	}
	if err := c.IngestFloat("lat", keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := c.PullSnapshot("lat")
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func serverN(t *testing.T, addr string) uint64 {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, blob, err := c.Rollup("lat")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := quantiles.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	return sk.Snapshot().N()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReliableCoalescesAndBoundsOutbox: with the upstream down, a
// re-ship for an already-queued (table, source) pair coalesces in
// place, and a new pair arriving at the MaxOutbox bound evicts the
// oldest entry and counts it as dropped.
func TestReliableCoalescesAndBoundsOutbox(t *testing.T) {
	var dials atomic.Int64
	r, err := client.NewReliable(client.ReliableConfig{
		Dial: func() (*client.Client, error) {
			dials.Add(1)
			return nil, errors.New("upstream down")
		},
		// One immediate attempt, then an hour of backoff: the outbox
		// state below is examined while the loop sleeps.
		MinBackoff: time.Hour,
		MaxBackoff: time.Hour,
		MaxOutbox:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.ShipSnapshot("t", "a", []byte("a1")); err != nil {
		t.Fatal(err)
	}
	// The first attempt fails and the entry is re-claimed for the
	// backoff sleep; from here every ship only mutates the outbox.
	waitFor(t, "first dial attempt", func() bool { return dials.Load() >= 1 })
	waitFor(t, "entry claimed for retry", func() bool {
		st := r.Stats()
		return st.Inflight && st.Queued == 0
	})

	if err := r.ShipSnapshot("t", "a", []byte("a2")); err != nil { // new entry (a is in flight)
		t.Fatal(err)
	}
	if err := r.ShipSnapshot("t", "a", []byte("a3")); err != nil { // coalesces into a2's slot
		t.Fatal(err)
	}
	if st := r.Stats(); st.Queued != 1 {
		t.Fatalf("after coalescing ships: queued = %d, want 1", st.Queued)
	}
	if err := r.ShipSnapshot("t", "b", []byte("b1")); err != nil { // second pair: at the bound
		t.Fatal(err)
	}
	if err := r.ShipSnapshot("t", "c", []byte("c1")); err != nil { // evicts oldest (a)
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Queued != 2 || st.Dropped != 1 {
		t.Fatalf("at the bound: queued = %d dropped = %d, want 2, 1", st.Queued, st.Dropped)
	}
	if st.State != client.StateDisconnected {
		t.Fatalf("state = %v, want %v", st.State, client.StateDisconnected)
	}
	if st.LastError == nil {
		t.Fatal("LastError not recorded after failed dials")
	}
}

// TestReliableDeliversAfterFailedDials: dialing fails twice before the
// real upstream is reachable; the queued cumulative snapshot arrives
// once the backoff loop gets through, and its replace semantics leave
// the server with exactly the latest state.
func TestReliableDeliversAfterFailedDials(t *testing.T) {
	_, addr := startQuantilesServer(t, "lat")
	v1 := quantilesBlob(t, 100)
	v2 := quantilesBlob(t, 300)

	var attempts atomic.Int64
	var states []client.ConnState
	r, err := client.NewReliable(client.ReliableConfig{
		Dial: func() (*client.Client, error) {
			if attempts.Add(1) <= 2 {
				return nil, errors.New("still booting")
			}
			return client.Dial(addr)
		},
		MinBackoff: time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		OnState:    func(s client.ConnState, err error) { states = append(states, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.ShipSnapshot("lat", "edge-1", v1); err != nil {
		t.Fatal(err)
	}
	if err := r.ShipSnapshot("lat", "edge-1", v2); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Dials < 3 || st.Failures < 2 {
		t.Fatalf("dials = %d failures = %d, want >= 3, >= 2", st.Dials, st.Failures)
	}
	if st.Delivered == 0 || st.LastDelivery.IsZero() {
		t.Fatalf("delivered = %d lastDelivery = %v, want progress", st.Delivered, st.LastDelivery)
	}
	if st.State != client.StateConnected {
		t.Fatalf("state = %v, want %v", st.State, client.StateConnected)
	}
	// Whether v1 was delivered then replaced by v2, or coalesced away
	// before the first successful dial, the upstream holds exactly v2.
	if got := serverN(t, addr); got != 300 {
		t.Fatalf("server N = %d, want 300 (latest cumulative snapshot)", got)
	}
	r.Close()
	// The callback saw a terminal Closed after at least one
	// Connecting/Connected cycle.
	if len(states) == 0 || states[len(states)-1] != client.StateClosed {
		t.Fatalf("state transitions = %v, want trailing %v", states, client.StateClosed)
	}
}

// TestReliablePoisonEntryDropped: a snapshot the server permanently
// rejects (BAD_PAYLOAD) is dropped instead of wedging the outbox; the
// connection stays up and later ships flow.
func TestReliablePoisonEntryDropped(t *testing.T) {
	_, addr := startQuantilesServer(t, "lat")
	r, err := client.DialReliable(addr, client.ReliableConfig{
		MinBackoff: time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.ShipSnapshot("lat", "edge-1", []byte("not an FCTB blob")); err != nil {
		t.Fatal(err)
	}
	if err := r.ShipSnapshot("lat", "edge-1b", quantilesBlob(t, 50)); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Dropped != 1 || st.Delivered != 1 {
		t.Fatalf("dropped = %d delivered = %d, want 1, 1", st.Dropped, st.Delivered)
	}
	if st.Dials != 1 {
		t.Fatalf("dials = %d, want 1 (a request-scoped rejection must not reconnect)", st.Dials)
	}
	var se *client.ServerError
	if !errors.As(st.LastError, &se) {
		t.Fatalf("LastError = %v, want a ServerError", st.LastError)
	}
	if got := serverN(t, addr); got != 50 {
		t.Fatalf("server N = %d, want 50", got)
	}
}

// TestReliableUnknownTableRetriesUntilRegistered: unknown-table is
// what an aggregator answers while restarting before its tables are
// registered — the shipper must treat it as transient (back off,
// retry), not as poison, and deliver once the table appears.
func TestReliableUnknownTableRetriesUntilRegistered(t *testing.T) {
	s, addr := startQuantilesServer(t, "lat")
	r, err := client.DialReliable(addr, client.ReliableConfig{
		MinBackoff: time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.ShipSnapshot("late", "edge-1", quantilesBlob(t, 70)); err != nil {
		t.Fatal(err)
	}
	// The ship keeps failing (unknown table) without being dropped.
	waitFor(t, "retries against the unregistered table", func() bool {
		return r.Stats().Failures >= 3
	})
	if st := r.Stats(); st.Dropped != 0 || st.Delivered != 0 {
		t.Fatalf("dropped = %d delivered = %d during retries, want 0, 0", st.Dropped, st.Delivered)
	}

	// The table shows up (registration finished); the retry loop lands.
	late := table.NewQuantiles(table.QuantilesConfig[string]{
		Table: table.Config[string]{Writers: 2, Shards: 16},
		K:     128,
	})
	t.Cleanup(late.Close)
	if err := server.Register(s, "late", late.Table); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("delivered = %d dropped = %d, want 1, 0", st.Delivered, st.Dropped)
	}
}

// TestReliableRejectsAnonymousShips: reliable redelivery relies on
// replace semantics, which need a source id — anonymous ships are
// refused up front.
func TestReliableRejectsAnonymousShips(t *testing.T) {
	r, err := client.NewReliable(client.ReliableConfig{
		Dial: func() (*client.Client, error) { return nil, errors.New("unused") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ShipSnapshot("t", "", []byte("x")); err == nil {
		t.Fatal("anonymous ShipSnapshot accepted")
	}
	if err := r.ShipWindowSnapshot("t", "", 1, []byte("x")); err == nil {
		t.Fatal("anonymous ShipWindowSnapshot accepted")
	}
	if st := r.Stats(); st.Queued != 0 {
		t.Fatalf("queued = %d after rejected ships, want 0", st.Queued)
	}

	// Ship after Close is refused too.
	r.Close()
	if err := r.ShipSnapshot("t", "s", []byte("x")); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("ship after Close = %v, want ErrClosed", err)
	}
}
