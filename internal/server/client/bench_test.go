package client

import (
	"bufio"
	"net"
	"testing"

	"github.com/fcds/fcds/internal/server/wire"
)

// ackSink listens on loopback and answers every frame the way a server
// that accepts everything would: HELLO with this build's version, any
// other frame with an empty OK, flushed once the pipelined input is
// read. It returns the address to dial.
func ackSink(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr := wire.NewFrameReader(nc, 0, 0)
		bw := bufio.NewWriter(nc)
		// Both answers are built once, so the sink allocates nothing per
		// frame and allocs/op counts the client's allocations.
		hello := append(wire.AppendHeader(nil, wire.Version, wire.FrameHello, 1), wire.Version)
		ok := wire.AppendHeader(nil, wire.Version, wire.FrameOK, 0)
		for {
			_, typ, _, _, err := fr.Next()
			if err != nil {
				return
			}
			if typ == wire.FrameHello {
				_, err = bw.Write(hello)
			} else {
				_, err = bw.Write(ok)
			}
			if err == nil && fr.Buffered() == 0 {
				err = bw.Flush()
			}
			if err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// BenchmarkClientSend prices the client's write path over a loopback
// socket: ingest is one asynchronous 2 048-pair IngestU64 frame per op
// (drained by a Flush at the end), push one synchronous 1 MiB
// PushSnapshotFrom per op. MB/s counts frame payload bytes.
func BenchmarkClientSend(b *testing.B) {
	b.Run("ingest-2048", func(b *testing.B) {
		const n = 2048
		keys, vals := make([]uint64, n), make([]uint64, n)
		for i := range n {
			keys[i], vals[i] = uint64(i)*0x9e3779b97f4a7c15, uint64(i)
		}
		c, err := Dial(ackSink(b))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.SetBytes(16 * n)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if err := c.IngestU64("t", keys, vals); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("push-1MiB", func(b *testing.B) {
		blob := make([]byte, 1<<20)
		for i := range blob {
			blob[i] = byte(i * 7)
		}
		c, err := Dial(ackSink(b))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if err := c.PushSnapshotFrom("t", "edge", blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
