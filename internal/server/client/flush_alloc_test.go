package client

import (
	"net"
	"testing"

	"github.com/fcds/fcds/internal/server/wire"
)

// TestVectoredFlushZeroAllocs: a snapshot push whose blob ships as its
// own writev segment (vectoredMin bytes or more) leaves through a real
// loopback socket without allocating — the header the vectored write
// consumes is the client's, not a fresh one per flush.
func TestVectoredFlushZeroAllocs(t *testing.T) {
	const runs = 200
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := newDiscardClient(2*runs + 64)
	c.nc = nc
	blob := make([]byte, vectoredMin)
	push := func() {
		// The push frame of PushSnapshotFrom, sent without waiting for an
		// answer: the peer reads and discards.
		if err := c.send(c.version, wire.FrameSnapshotPush, nil, blob, func(dst []byte) []byte {
			return wire.AppendString(wire.AppendString(dst, "t"), "edge")
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.flushWrites(); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		push()
	}
	if avg := testing.AllocsPerRun(runs, push); avg != 0 {
		t.Errorf("a vectored push flush allocates %.1f allocs/op, want 0", avg)
	}
	nc.Close()
	<-done
}
