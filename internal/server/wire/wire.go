// Package wire defines the fcds network ingest protocol: a
// length-prefixed binary frame format shared by the server
// (internal/server) and the client (internal/server/client). The
// package is deliberately tiny — frame header codec, frame type and
// error-code registries, and an allocation-free payload cursor — so
// both endpoints speak from one definition and neither imports the
// other.
//
// # Frame layout (little endian)
//
//	offset  size  field
//	0       4     payload length N (bytes after the 8-byte header)
//	4       1     protocol version (currently 1)
//	5       1     frame type
//	6       1     frame flags (0; see below)
//	7       1     reserved (0)
//	8       N     payload
//
// Every request frame receives exactly one response frame, in request
// order — that in-order contract is what makes client-side pipelining
// trivial (a FIFO of pending operations, no request ids on the wire).
//
// # Version negotiation
//
// The first frame on a connection must be HELLO: the client sends the
// highest protocol version it speaks (1-byte payload), the server
// replies with a HELLO carrying min(client, server) — the negotiated
// version every subsequent frame on the connection must carry in its
// header. A client newer than the server simply downshifts; a version
// the server cannot serve at all is answered with an ERR frame
// (ErrCodeVersion) and the connection is closed.
//
// Older clients MAY append a second HELLO payload byte of feature
// bits. The server answers such a HELLO with the same two-byte shape
// and a feature byte of 0: it accepts no feature. Feature bit 0 (and
// its frame flag, per-frame deflate of batch payloads) is retired and
// always refused; the client then sends plain frames. A one-byte HELLO
// always gets a one-byte reply. Header byte 6, the frame flags, MUST be
// zero: receivers treat any nonzero flag bit as a fatal framing error.
//
// # Payload encodings
//
// Integers are uvarints unless noted; keys follow the FCTB snapshot
// conventions (string keys: uvarint length + bytes; uint64 keys: 8
// bytes LE); sketch values are 8 bytes LE (uint64 items for Θ/HLL,
// IEEE-754 bits for quantiles samples — the table's family decides the
// interpretation). Snapshot blobs are verbatim FCTB images (see
// internal/table's serde format), so a shipped snapshot is validated
// by the same parser that guards on-disk spills.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/fcds/fcds/internal/core"
)

// Version is the highest protocol version this build speaks.
const Version byte = 1

// HeaderSize is the fixed frame-header size in bytes.
const HeaderSize = 8

// DefaultMaxFrame bounds a frame's payload size (16 MiB): large enough
// for snapshot shipping of sizeable tables, small enough that one
// malicious or corrupt length prefix cannot OOM the receiver.
const DefaultMaxFrame = 16 << 20

// Frame types. Requests are < 0x80, responses >= 0x80; HELLO is used
// in both directions.
const (
	// FrameHello negotiates the protocol version (both directions).
	FrameHello byte = 0x01
	// FrameKeyedBatch ingests parallel (key, 8-byte value) slices into
	// a named table: table name, key-type byte, count, keys, values.
	FrameKeyedBatch byte = 0x02
	// FrameKeyedStringBatch ingests parallel (key, string item) slices
	// into a named Θ or HLL table (items are hashed server-side).
	FrameKeyedStringBatch byte = 0x03
	// FrameSnapshotPush ships an FCTB table snapshot into the named
	// table's remote state: table name, source id, then the blob. A
	// non-empty source id REPLACES that source's previously pushed
	// snapshot — the contract for nodes that periodically ship their
	// full cumulative snapshot (fcds-serve -push), where re-merging
	// every tick would double-count non-idempotent families
	// (quantiles re-counts samples; Θ/HLL merges are idempotent). An
	// empty source id merges into a shared aggregate: one-shot ships
	// and delta-shipping pushers.
	FrameSnapshotPush byte = 0x04
	// FrameSnapshotPull requests the named table's full merged snapshot
	// (live table + every received remote snapshot) as an FCTB blob.
	FrameSnapshotPull byte = 0x05
	// FrameQuery requests one key's merged compact sketch: table name,
	// key-type byte, key. Response value: found byte, kind byte, blob.
	FrameQuery byte = 0x06
	// FrameRollup requests the all-keys merged compact (live + remote):
	// table name. Response value: kind byte, blob.
	FrameRollup byte = 0x07
	// FrameHealth requests server counters (empty payload).
	FrameHealth byte = 0x08
	// FrameWindowSnapshot ships a windowed table's sealed-epoch FCTB
	// snapshot: table name, source id (must be non-empty — window ships
	// are inherently per-source), uvarint epoch, then the blob. The
	// epoch is the shipper's rotation counter: the receiver replaces
	// the source's previous window snapshot only when the epoch is >=
	// the last one it applied from that source, so a retried or
	// duplicated frame (a reconnecting client re-shipping its outbox)
	// is idempotent and a reordered stale ship can never roll a newer
	// window back. A restarted shipper's epoch counter resets to zero —
	// it must ship under a fresh source id (the default host/pid id
	// changes across restarts) or its pushes would be rejected as
	// stale.
	FrameWindowSnapshot byte = 0x09

	// FrameOK acknowledges an ingest or push (empty payload).
	FrameOK byte = 0x81
	// FrameValue carries a request-specific response payload.
	FrameValue byte = 0x82
	// FrameErr reports a failed request: uvarint code, uvarint message
	// length, message bytes. The connection stays usable unless the
	// code is fatal (ErrCodeVersion, ErrCodeBadFrame).
	FrameErr byte = 0x83
)

// Error codes carried by FrameErr.
const (
	ErrCodeBadFrame     uint64 = 1 // malformed header or payload framing (fatal)
	ErrCodeVersion      uint64 = 2 // no common protocol version (fatal)
	ErrCodeUnknownTable uint64 = 3 // named table not registered
	ErrCodeBadPayload   uint64 = 4 // payload failed validation
	ErrCodeUnsupported  uint64 = 5 // operation not supported by the table's family
	ErrCodeInternal     uint64 = 6 // server-side failure (serialization, merge)
	ErrCodeShutdown     uint64 = 7 // server is draining; retry elsewhere
)

// Key-type bytes: core's key registry, which FCTB snapshots use too.
const (
	KeyTypeString = core.KeyString
	KeyTypeUint64 = core.KeyUint64
)

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrBadHeader     = errors.New("wire: malformed frame header")
	ErrShortPayload  = errors.New("wire: truncated payload")
)

// AppendHeader appends an 8-byte frame header for a payload of n bytes.
func AppendHeader(dst []byte, version, typ byte, n int) []byte {
	var h [HeaderSize]byte
	PutHeader(h[:], version, typ, 0, n)
	return append(dst, h[:]...)
}

// PutHeader writes an 8-byte frame header into hdr (len >= HeaderSize).
// Writers that reserve header space up front and patch it once the
// payload length is known use this instead of AppendHeader.
func PutHeader(hdr []byte, version, typ, flags byte, n int) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = version
	hdr[5] = typ
	hdr[6] = flags
	hdr[7] = 0
}

// WriteFrame writes one frame (header + payload) to w.
func WriteFrame(w io.Writer, version, typ byte, payload []byte) error {
	var hdr [HeaderSize]byte
	PutHeader(hdr[:], version, typ, 0, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendErrPayload encodes a FrameErr payload.
func AppendErrPayload(dst []byte, code uint64, msg string) []byte {
	dst = binary.AppendUvarint(dst, code)
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}

// ParseErrPayload decodes a FrameErr payload.
func ParseErrPayload(p []byte) (code uint64, msg string, err error) {
	r := Reader{Buf: p}
	code = r.Uvarint()
	msg = string(r.Bytes(int(r.Uvarint())))
	if r.Err != nil {
		return 0, "", r.Err
	}
	return code, msg, nil
}

// Reader is an allocation-free cursor over a payload. Decoding methods
// latch the first error in Err and return zero values afterwards, so
// call sites read a whole payload and check Err once.
type Reader struct {
	Buf []byte
	Err error
}

func (r *Reader) fail() {
	if r.Err == nil {
		r.Err = ErrShortPayload
	}
}

// Uvarint reads one uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.Buf = r.Buf[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.Err != nil {
		return 0
	}
	if len(r.Buf) < 1 {
		r.fail()
		return 0
	}
	b := r.Buf[0]
	r.Buf = r.Buf[1:]
	return b
}

// Uint64 reads 8 bytes LE.
func (r *Reader) Uint64() uint64 {
	if r.Err != nil {
		return 0
	}
	if len(r.Buf) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.Buf)
	r.Buf = r.Buf[8:]
	return v
}

// Float64 reads 8 bytes LE as IEEE-754 bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bytes reads exactly n bytes, aliasing the payload (no copy). A
// negative n is treated as a framing error.
func (r *Reader) Bytes(n int) []byte {
	if r.Err != nil {
		return nil
	}
	if n < 0 || len(r.Buf) < n {
		r.fail()
		return nil
	}
	b := r.Buf[:n]
	r.Buf = r.Buf[n:]
	return b
}

// String reads a uvarint-length-prefixed string (one allocation — the
// copy out of the read buffer; table keys are retained by the table so
// they cannot alias a reused buffer).
func (r *Reader) String() string {
	n := r.Uvarint()
	return string(r.Bytes(int(n)))
}

// StringView reads a uvarint-length-prefixed string as a byte slice
// aliasing the payload — for transient use (hashing) only.
func (r *Reader) StringView() []byte {
	n := r.Uvarint()
	return r.Bytes(int(n))
}

// Rest returns all remaining bytes.
func (r *Reader) Rest() []byte {
	b := r.Buf
	r.Buf = nil
	return b
}

// Remaining reports how many bytes are left.
func (r *Reader) Remaining() int { return len(r.Buf) }

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendUvarint re-exports binary.AppendUvarint for call-site symmetry.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendUint64 appends 8 bytes LE.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendFloat64 appends a float64 as 8 IEEE-754 bytes LE.
func AppendFloat64(dst []byte, v float64) []byte {
	return AppendUint64(dst, math.Float64bits(v))
}

// DefaultReadBurst is the default FrameReader window (128 KiB): big
// enough that a burst of pipelined keyed batches is pulled off the
// socket in one read syscall and decoded in place, small enough to be
// cheap per connection.
const DefaultReadBurst = 128 << 10

// FrameReader reads frames through a buffered burst window sized from
// the length prefix: Next peeks the header, then peeks the whole
// payload out of the window — the returned payload aliases the
// window's buffer, zero copies off the socket — and defers the discard
// to the following Next call, so the payload stays valid while the
// caller decodes it. Frames larger than the window (snapshot blobs)
// spill into an owned buffer reused across calls. Not safe for
// concurrent use.
type FrameReader struct {
	br       *bufio.Reader
	spill    []byte // owned payload buffer for frames larger than the window
	pend     int    // bytes of the current peeked frame, discarded on the next call
	maxFrame int
}

// NewFrameReader wraps r in a burst window of size bytes (<= 0 means
// DefaultReadBurst) bounding payloads at maxFrame (<= 0 means
// DefaultMaxFrame).
func NewFrameReader(r io.Reader, size, maxFrame int) *FrameReader {
	if size <= 0 {
		size = DefaultReadBurst
	}
	if size < 4<<10 {
		size = 4 << 10
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{br: bufio.NewReaderSize(r, size), maxFrame: maxFrame}
}

// Next returns the next frame. The payload is only valid until the
// following Next call. Flags are returned raw — rejecting them is the
// caller's job; the reserved byte 7 must be zero.
func (f *FrameReader) Next() (version, typ, flags byte, payload []byte, err error) {
	if f.pend > 0 {
		if _, err := f.br.Discard(f.pend); err != nil {
			return 0, 0, 0, nil, err
		}
		f.pend = 0
	}
	hdr, err := f.br.Peek(HeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, 0, nil, err
	}
	n32 := binary.LittleEndian.Uint32(hdr[0:4])
	version, typ, flags = hdr[4], hdr[5], hdr[6]
	if hdr[7] != 0 {
		return version, typ, flags, nil, ErrBadHeader
	}
	if uint64(n32) > uint64(f.maxFrame) {
		return version, typ, flags, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n32, f.maxFrame)
	}
	n := int(n32)
	if total := HeaderSize + n; total <= f.br.Size() {
		full, err := f.br.Peek(total)
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("%w: %v", ErrShortPayload, io.ErrUnexpectedEOF)
			}
			return version, typ, flags, nil, err
		}
		f.pend = total
		return version, typ, flags, full[HeaderSize:], nil
	}
	// Frame exceeds the window: consume the header and read the payload
	// into the owned spill buffer.
	if _, err := f.br.Discard(HeaderSize); err != nil {
		return version, typ, flags, nil, err
	}
	if cap(f.spill) < n {
		f.spill = make([]byte, n, n+n/2)
	}
	payload = f.spill[:n]
	if _, err := io.ReadFull(f.br, payload); err != nil {
		return version, typ, flags, nil, fmt.Errorf("%w: %v", ErrShortPayload, err)
	}
	return version, typ, flags, payload, nil
}

// Buffered reports the bytes available beyond the current frame — the
// pipelining signal: while it is nonzero another request is already in
// the window, so a server can hold its response flush.
func (f *FrameReader) Buffered() int { return f.br.Buffered() - f.pend }
