package client

import (
	"net"
	"testing"

	"github.com/fcds/fcds/internal/server/wire"
)

// TestPushFlushZeroAllocs: a snapshot push leaves through a real
// loopback socket without allocating, whether its blob is copied
// through the write buffer (4 KiB) or is larger than the buffer and
// goes straight to the socket (1 MiB).
func TestPushFlushZeroAllocs(t *testing.T) {
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
	c := newTestClient(nc, 4*runs+128)
	for _, size := range []int{4 << 10, 1 << 20} {
		blob := make([]byte, size)
		push := func() {
			// The push frame of PushSnapshotFrom, sent without waiting
			// for an answer: the peer reads and discards.
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
			t.Errorf("a %d-byte push flush allocates %.1f allocs/op, want 0", size, avg)
		}
	}
	nc.Close()
	<-done
}
