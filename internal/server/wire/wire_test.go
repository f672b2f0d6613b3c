package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// TestFrameRoundTrip pins the header layout byte for byte and the
// WriteFrame → FrameReader round trip across frames.
func TestFrameRoundTrip(t *testing.T) {
	var out bytes.Buffer
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xab}, 3000),
		[]byte("tail"),
	}
	for i, p := range payloads {
		if err := WriteFrame(&out, Version, byte(0x10+i), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Header layout of the first frame.
	raw := out.Bytes()
	if got := int(raw[0]) | int(raw[1])<<8 | int(raw[2])<<16 | int(raw[3])<<24; got != 5 {
		t.Fatalf("length field = %d, want 5", got)
	}
	if raw[4] != Version || raw[5] != 0x10 || raw[6] != 0 || raw[7] != 0 {
		t.Fatalf("header bytes = % x", raw[4:8])
	}

	fr := NewFrameReader(&out, 0, 0)
	for i, want := range payloads {
		ver, typ, flags, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if ver != Version || typ != byte(0x10+i) || flags != 0 || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: ver=%d typ=%#x flags=%#x payload %d bytes", i, ver, typ, flags, len(payload))
		}
	}
	if _, _, _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("read past end: %v, want EOF", err)
	}
}

// TestFrameLimits pins FrameReader's oversized-frame, reserved-byte
// and truncated-payload rejection.
func TestFrameLimits(t *testing.T) {
	var out bytes.Buffer
	if err := WriteFrame(&out, Version, FrameHealth, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	next := func(raw []byte, maxFrame int) error {
		_, _, _, _, err := NewFrameReader(bytes.NewReader(raw), 0, maxFrame).Next()
		return err
	}
	if err := next(out.Bytes(), 64); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}

	raw := append([]byte{}, out.Bytes()...)
	raw[7] = 1 // reserved byte must be zero
	if err := next(raw, 0); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("reserved byte set: %v, want ErrBadHeader", err)
	}

	// Truncated payload.
	trunc := out.Bytes()[:HeaderSize+10]
	if err := next(trunc, 0); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("truncated payload: %v, want ErrShortPayload", err)
	}
}

// TestReaderCursor pins the payload cursor: typed reads, the latched
// error, and that post-error reads return zero values.
func TestReaderCursor(t *testing.T) {
	var p []byte
	p = AppendUvarint(p, 300)
	p = AppendString(p, "abc")
	p = AppendUint64(p, 0xdeadbeef)
	p = AppendFloat64(p, 3.5)

	r := Reader{Buf: p}
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("uvarint = %d", v)
	}
	if s := r.String(); s != "abc" {
		t.Fatalf("string = %q", s)
	}
	if v := r.Uint64(); v != 0xdeadbeef {
		t.Fatalf("uint64 = %#x", v)
	}
	if f := r.Float64(); f != 3.5 {
		t.Fatalf("float64 = %v", f)
	}
	if r.Err != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err, r.Remaining())
	}
	// Reading past the end latches the error and stays latched.
	if v := r.Uint64(); v != 0 || r.Err == nil {
		t.Fatalf("past-end read: v=%d err=%v", v, r.Err)
	}
	if s := r.String(); s != "" {
		t.Fatalf("post-error read = %q, want zero value", s)
	}
}

// TestErrPayload pins the error-frame payload round trip.
func TestErrPayload(t *testing.T) {
	p := AppendErrPayload(nil, ErrCodeUnknownTable, "no such table")
	code, msg, err := ParseErrPayload(p)
	if err != nil || code != ErrCodeUnknownTable || msg != "no such table" {
		t.Fatalf("parse = (%d, %q, %v)", code, msg, err)
	}
	if _, _, err := ParseErrPayload([]byte{0x80}); err == nil {
		t.Fatal("malformed error payload parsed")
	}
}

// TestFrameReaderBurst exercises the peek-based read path: pipelined
// frames decoded in place out of one window, a frame larger than the
// window spilling to the owned buffer, and Buffered reporting only the
// bytes beyond the current frame.
func TestFrameReaderBurst(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	defer sconn.Close()

	small := bytes.Repeat([]byte{0xab}, 100)
	big := bytes.Repeat([]byte{0xcd}, 10<<10) // exceeds the 4 KiB window below
	go func() {
		var out []byte
		out = AppendHeader(out, Version, FrameHello, len(small))
		out = append(out, small...)
		out = AppendHeader(out, Version, FrameKeyedBatch, len(small))
		out = append(out, small...)
		out = AppendHeader(out, Version, FrameSnapshotPush, len(big))
		out = append(out, big...)
		cconn.Write(out)
	}()

	fr := NewFrameReader(sconn, 4<<10, 0)
	ver, typ, flags, p, err := fr.Next()
	if err != nil || ver != Version || typ != FrameHello || flags != 0 || !bytes.Equal(p, small) {
		t.Fatalf("frame 1: typ=%#x flags=%#x err=%v", typ, flags, err)
	}
	first := p
	if _, typ, _, p, err = fr.Next(); err != nil || typ != FrameKeyedBatch || !bytes.Equal(p, small) {
		t.Fatalf("frame 2: typ=%#x err=%v", typ, err)
	}
	_ = first // frame 1's view is dead here by contract; only its former content mattered
	if _, typ, _, p, err = fr.Next(); err != nil || typ != FrameSnapshotPush || !bytes.Equal(p, big) {
		t.Fatalf("spill frame: typ=%#x err=%v", typ, err)
	}
	if got := fr.Buffered(); got != 0 {
		t.Fatalf("Buffered after drain = %d, want 0", got)
	}
}

// TestFrameReaderRejectsReservedByte pins FrameReader's strictness: a
// nonzero reserved byte 7 is a framing error. Byte 6 (flags) is
// returned raw for the caller to police.
func TestFrameReaderRejectsReservedByte(t *testing.T) {
	var raw []byte
	raw = AppendHeader(raw, Version, FrameHello, 1)
	raw = append(raw, 0x7f)
	raw[7] = 1 // reserved byte
	fr := NewFrameReader(bytes.NewReader(raw), 0, 0)
	if _, _, _, _, err := fr.Next(); err == nil {
		t.Fatal("nonzero reserved byte accepted")
	}

	raw = raw[:0]
	raw = AppendHeader(raw, Version, FrameHello, 1)
	raw = append(raw, 0x7f)
	raw[6] = 1 // bit 0, the retired deflate flag
	fr = NewFrameReader(bytes.NewReader(raw), 0, 0)
	_, _, flags, _, err := fr.Next()
	if err != nil || flags != 1 {
		t.Fatalf("flags byte: flags=%#x err=%v (want raw passthrough)", flags, err)
	}
}
