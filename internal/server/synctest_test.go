//go:build goexperiment.synctest

package server_test

import (
	"net"
	"sync/atomic"
	"testing"
	"testing/synctest"

	"github.com/fcds/fcds/internal/server"
	"github.com/fcds/fcds/internal/server/client"
	"github.com/fcds/fcds/internal/table"
)

// These tests run under Go's synctest bubble (GOEXPERIMENT=synctest):
// connections are in-memory pipes with virtual deadlines, so accept,
// in-flight drain and shutdown interleavings are deterministic — no
// wall-clock sleeps, no port races.

// chanListener is a net.Listener fed by a channel — the in-bubble
// stand-in for a TCP accept loop.
type chanListener struct {
	ch     chan net.Conn
	done   chan struct{}
	closed atomic.Bool
}

func newChanListener() *chanListener {
	return &chanListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.ch:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	if l.closed.CompareAndSwap(false, true) {
		close(l.done)
	}
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *chanListener) Addr() net.Addr { return pipeAddr{} }

// dialPipe connects a client through the listener via an in-memory
// pipe.
func dialPipe(t *testing.T, l *chanListener) *client.Client {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	l.ch <- sEnd
	c, err := client.New(cEnd)
	if err != nil {
		t.Fatalf("pipe dial: %v", err)
	}
	return c
}

// TestSynctestShutdownDrainsInFlight pins the drain contract: every
// frame the server has received before Close is processed and
// acknowledged, the responses are flushed, and only then do the
// connections and the accept loop go down — all its ingested data is
// queryable from the table afterwards.
func TestSynctestShutdownDrainsInFlight(t *testing.T) {
	synctest.Run(func() {
		tab := table.NewTheta(table.ThetaConfig[string]{
			Table: table.Config[string]{Writers: 2, Shards: 16},
			K:     2048, MaxError: 1,
		})
		defer tab.Close()
		s := server.New(server.Config{})
		if err := server.Register(s, "ev", tab.Table); err != nil {
			t.Fatal(err)
		}
		ln := newChanListener()
		serveDone := make(chan error, 1)
		go func() { serveDone <- s.Serve(ln) }()

		c := dialPipe(t, ln)
		c2 := dialPipe(t, ln)

		const batches = 20
		keys := make([]string, 32)
		vals := make([]uint64, 32)
		next := uint64(0)
		for b := 0; b < batches; b++ {
			for i := range keys {
				keys[i] = "k" // one key: every update distinct
				vals[i] = next
				next++
			}
			target := c
			if b%2 == 1 {
				target = c2
			}
			if err := target.Ingest("ev", keys, vals); err != nil {
				t.Fatal(err)
			}
		}
		// Flush returns once every batch is acknowledged — i.e. the
		// server has fully processed each one (pipes are synchronous, so
		// nothing is in flight in a kernel buffer either).
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := c2.Flush(); err != nil {
			t.Fatal(err)
		}

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-serveDone; err != nil {
			t.Fatalf("Serve returned %v after graceful Close", err)
		}
		synctest.Wait()

		// All in-flight data landed: with the server gone we are the
		// only writer, so Drain is safe and the count is exact.
		tab.Drain()
		est, ok := tab.Estimate("k")
		if !ok || est != float64(batches*len(keys)) {
			t.Fatalf("post-drain estimate = %v (ok=%v), want %d", est, ok, batches*len(keys))
		}

		// The connections are really closed: the next call fails.
		if _, err := c.Health(); err == nil {
			t.Fatal("Health succeeded on a drained connection")
		}
		_ = c.Close()
		_ = c2.Close()
	})
}

// TestSynctestCloseInterruptsIdleRead pins shutdown liveness: a
// connection blocked in a frame read (idle client) does not stall
// Close — the read is interrupted and the goroutine exits.
func TestSynctestCloseInterruptsIdleRead(t *testing.T) {
	synctest.Run(func() {
		s := server.New(server.Config{})
		ln := newChanListener()
		serveDone := make(chan error, 1)
		go func() { serveDone <- s.Serve(ln) }()

		c := dialPipe(t, ln) // negotiates HELLO, then sits idle
		synctest.Wait()      // server conn goroutine is now blocked reading

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-serveDone; err != nil {
			t.Fatalf("Serve returned %v", err)
		}
		if _, err := c.Health(); err == nil {
			t.Fatal("Health succeeded after server close")
		}
		_ = c.Close()
	})
}

// TestSynctestLateDialRejected pins the accept-side contract: a
// connection arriving after Close is closed immediately, and Close is
// idempotent.
func TestSynctestLateDialRejected(t *testing.T) {
	synctest.Run(func() {
		s := server.New(server.Config{})
		ln := newChanListener()
		serveDone := make(chan error, 1)
		go func() { serveDone <- s.Serve(ln) }()
		synctest.Wait()

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
		if err := <-serveDone; err != nil {
			t.Fatalf("Serve returned %v", err)
		}

		// The listener is down: a late pipe has no accept loop to pick
		// it up, and client-side negotiation fails once the pipe dies.
		cEnd, _ := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			_, err := client.New(cEnd)
			errc <- err
		}()
		synctest.Wait() // client blocked writing HELLO into a dead pipe
		cEnd.Close()
		if err := <-errc; err == nil {
			t.Fatal("dial after close succeeded")
		}
	})
}
