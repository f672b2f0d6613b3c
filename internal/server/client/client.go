// Package client implements the fcds ingest-protocol client: a
// connection to one fcds ingest server with batching writes and
// pipelined responses.
//
// Ingest calls (Ingest*, the keyed-batch frames) are asynchronous:
// they append a frame to a buffered writer and return without waiting
// — the server's in-order acknowledgements are consumed by a
// background reader goroutine, and the first server-side failure is
// latched and surfaced by the next Flush (or Close). Query-shaped
// calls (QueryCompact, Rollup, PullSnapshot, PushSnapshot, Health) are
// synchronous: they flush the write buffer and wait for their
// response, which the in-order response contract matches to them
// without request ids.
//
// A Client is safe for concurrent use; ingest frames from concurrent
// goroutines are serialized at the write buffer.
//
// Frames accumulate in one write buffer — payloads are built in place
// behind a reserved header that is patched once the length is known —
// and large snapshot blobs are queued as their own writev segments, so
// a flush hands the kernel the whole burst in a single vectored write
// instead of copying blobs through the buffer.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/server/wire"
)

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("client: connection closed")

// ServerError is a failure the server reported through an error frame.
type ServerError struct {
	// Code is one of the wire.ErrCode* values.
	Code uint64
	// Msg is the server's human-readable diagnostic.
	Msg string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("server error %d: %s", e.Code, e.Msg)
}

// Health is the server's counter snapshot, as reported by the HEALTH
// frame.
type Health struct {
	// Version is the server's protocol version.
	Version byte
	// Tables and Keys describe the registered tables.
	Tables, Keys int
	// Conns is the server's open-connection count.
	Conns int
	// Frames, Items, Snapshots and Errors are the server's lifetime
	// request, ingested-update, merged-snapshot and error counts.
	Frames, Items, Snapshots, Errors uint64
	// CheckpointAge is the time since the server last wrote (or
	// recovered) a durability checkpoint. A monitoring client alerts
	// on this growing past the configured checkpoint interval — it
	// bounds how much aggregator state a crash right now would lose.
	// Check HasCheckpoint before trusting a zero age.
	CheckpointAge time.Duration
	// HasCheckpoint reports whether the server has ever checkpointed:
	// CheckpointAge alone cannot distinguish "just checkpointed" from
	// "never" once it rounds to zero. Servers that predate the flag
	// omit it; it is then inferred from CheckpointAge != 0 (those
	// servers clamp a real age to at least 1ms on the wire).
	HasCheckpoint bool
	// JournalReplayed is the number of journal records the server's
	// last boot replayed on top of restored checkpoints (0 after a
	// clean start); JournalReplayAge is the age of the newest replayed
	// record (0 when none — check JournalReplayed). HasJournal reports
	// whether a durability journal is attached at all. Servers that
	// predate the journal omit all three (zero values).
	JournalReplayed  uint64
	JournalReplayAge time.Duration
	HasJournal       bool
}

// response is one server frame delivered to a waiting operation.
type response struct {
	typ     byte
	payload []byte // copied out of the read buffer
	err     error  // transport failure (connection-fatal)
}

// Client is one connection to an fcds ingest server.
type Client struct {
	nc          net.Conn
	version     byte
	dialTimeout time.Duration

	// wmu guards the write path: the frame-accumulation buffer, its
	// segment list, and enqueueing onto the pending queue (the enqueue
	// must be ordered identically to the writes).
	wmu   sync.Mutex
	wbuf  []byte      // accumulated frame bytes; headers patched in place
	segs  net.Buffers // closed segments: wbuf ranges interleaved with caller blobs
	wmark int         // start of the open wbuf segment
	wpend int         // bytes pending across segs plus the open segment
	iov   net.Buffers // flush scratch: every segment of one flush
	wv    net.Buffers // the header Buffers.WriteTo consumes, over iov's array

	// pmu guards the pending-response FIFO and the latched errors.
	pmu      sync.Mutex
	drained  *sync.Cond // signalled when pending goes empty or fatal
	pending  []chan response
	npending int
	asyncErr error // first error frame matched to an async op
	fatal    error // transport failure; the client is dead
	closed   bool
}

// Option configures Dial/New.
type Option func(*Client)

// WithDialTimeout bounds connection establishment: the TCP connect
// (Dial only) and the HELLO exchange each must complete within d, so a
// black-holed upstream (SYN swallowed by a firewall, or a peer that
// accepts and then never answers) fails fast instead of hanging the
// caller forever. Zero (the default) means no bound. The deadline is
// lifted once the HELLO response arrives; established-connection
// operations are unaffected.
func WithDialTimeout(d time.Duration) Option {
	return func(c *Client) { c.dialTimeout = d }
}

// Dial connects to an fcds ingest server and negotiates the protocol
// version.
func Dial(addr string, opts ...Option) (*Client, error) {
	// Peek at the options for the dial timeout: it must bound the TCP
	// connect itself, which happens before there is a conn to wrap.
	var probe Client
	for _, o := range opts {
		o(&probe)
	}
	var nc net.Conn
	var err error
	if probe.dialTimeout > 0 {
		nc, err = net.DialTimeout("tcp", addr, probe.dialTimeout)
	} else {
		nc, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	c, err := New(nc, opts...)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// New wraps an established connection (any net.Conn — tests use
// in-memory pipes) and negotiates the protocol version.
func New(nc net.Conn, opts ...Option) (*Client, error) {
	c := &Client{nc: nc}
	c.drained = sync.NewCond(&c.pmu)
	for _, o := range opts {
		o(c)
	}
	if c.dialTimeout > 0 {
		// Bound the HELLO exchange; lifted again once negotiation
		// succeeds so established-connection reads can block freely.
		nc.SetDeadline(time.Now().Add(c.dialTimeout))
	}
	go c.readLoop()
	resp, err := c.roundTrip(wire.Version, wire.FrameHello, func(dst []byte) []byte {
		return append(dst, wire.Version)
	})
	if err != nil {
		return nil, fmt.Errorf("client: version negotiation: %w", err)
	}
	if resp.typ != wire.FrameHello || len(resp.payload) != 1 || resp.payload[0] == 0 {
		return nil, fmt.Errorf("client: bad HELLO response (type 0x%02x)", resp.typ)
	}
	if c.dialTimeout > 0 {
		nc.SetDeadline(time.Time{})
	}
	c.version = resp.payload[0]
	return c, nil
}

// Version returns the negotiated protocol version.
func (c *Client) Version() byte { return c.version }

// readLoop consumes response frames and delivers them, in order, to
// the pending-operation FIFO.
func (c *Client) readLoop() {
	var rbuf []byte
	for {
		_, typ, payload, err := wire.ReadFrame(c.nc, &rbuf, wire.DefaultMaxFrame)
		c.pmu.Lock()
		if err != nil {
			if c.fatal == nil {
				if c.closed {
					c.fatal = ErrClosed
				} else {
					c.fatal = fmt.Errorf("client: read: %w", err)
				}
			}
			for _, ch := range c.pending {
				if ch != nil {
					ch <- response{err: c.fatal}
				}
			}
			c.pending = nil
			c.npending = 0
			c.drained.Broadcast()
			c.pmu.Unlock()
			return
		}
		if len(c.pending) == 0 {
			c.fatal = fmt.Errorf("client: unsolicited frame 0x%02x", typ)
			c.drained.Broadcast()
			c.pmu.Unlock()
			c.nc.Close()
			return
		}
		ch := c.pending[0]
		c.pending = c.pending[1:]
		c.npending--
		if ch == nil {
			// Asynchronous ingest acknowledgement: only failures matter.
			if typ == wire.FrameErr && c.asyncErr == nil {
				c.asyncErr = parseServerError(payload)
			}
		}
		if c.npending == 0 {
			c.drained.Broadcast()
		}
		c.pmu.Unlock()
		if ch != nil {
			p := make([]byte, len(payload))
			copy(p, payload)
			ch <- response{typ: typ, payload: p}
		}
	}
}

func parseServerError(payload []byte) error {
	code, msg, err := wire.ParseErrPayload(payload)
	if err != nil {
		return fmt.Errorf("client: malformed error frame: %w", err)
	}
	return &ServerError{Code: code, Msg: msg}
}

// writeBurst is the accumulation threshold: once at least this many
// bytes are pending, send flushes inline, so a long async ingest run
// still reaches the kernel in large vectored writes rather than
// growing the buffer without bound.
const writeBurst = 64 << 10

// vectoredMin is the blob size past which a snapshot payload tail is
// queued as its own writev segment instead of copied through the
// accumulation buffer.
const vectoredMin = 4 << 10

// send assembles one frame under the write lock and enqueues its
// pending slot (nil ch = asynchronous). build appends the payload
// directly into the accumulation buffer behind a reserved header that
// is patched once the length is known. blob, when non-nil, is a
// payload tail the caller keeps alive until its response arrives
// (snapshot pushes are synchronous), queued as its own writev segment
// when large enough.
func (c *Client) send(version, typ byte, ch chan response, blob []byte, build func(dst []byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pmu.Lock()
	if c.fatal != nil {
		err := c.fatal
		c.pmu.Unlock()
		return err
	}
	if c.closed {
		c.pmu.Unlock()
		return ErrClosed
	}
	c.pmu.Unlock()

	if blob != nil && len(blob) < vectoredMin {
		// Small blob: copying through the buffer beats an extra iovec.
		inner, tail := build, blob
		build = func(dst []byte) []byte { return append(inner(dst), tail...) }
		blob = nil
	}

	start, mark0, nsegs0 := len(c.wbuf), c.wmark, len(c.segs)
	c.wbuf = append(c.wbuf, make([]byte, wire.HeaderSize)...)
	c.wbuf = build(c.wbuf)
	n := len(c.wbuf) - start - wire.HeaderSize + len(blob)
	wire.PutHeader(c.wbuf[start:], version, typ, 0, n)
	c.wpend += len(c.wbuf) - start
	if blob != nil {
		// Close the open wbuf segment and queue the caller's bytes as
		// their own segment: they reach the kernel without a copy.
		// Closed segments stay valid when wbuf later grows — they alias
		// the array wbuf had when they were closed, whose bytes are
		// final (append may move wbuf to a new array, never mutate the
		// old one's prefix).
		c.segs = append(c.segs, c.wbuf[c.wmark:len(c.wbuf):len(c.wbuf)], blob)
		c.wmark = len(c.wbuf)
		c.wpend += len(blob)
	}

	// Enqueue before flushing: the response cannot arrive before the
	// frame bytes leave, and the reader must find the slot when it
	// does. fatal is re-checked under the same lock — if the read loop
	// died while the frame was being built, an enqueued slot would
	// never be delivered and a sync caller would block forever.
	c.pmu.Lock()
	if c.fatal != nil {
		err := c.fatal
		c.pmu.Unlock()
		// Roll the frame back out of the accumulation state: it was
		// never enqueued, so it must never reach the wire.
		c.wpend -= len(c.wbuf) - start + len(blob)
		c.wbuf = c.wbuf[:start]
		c.wmark = mark0
		c.segs = c.segs[:nsegs0]
		return err
	}
	c.pending = append(c.pending, ch)
	c.npending++
	c.pmu.Unlock()

	if c.wpend < writeBurst {
		return nil
	}
	if err := c.flushLocked(); err != nil {
		// The write failed, so the server may have seen a partial burst
		// and will never answer this slot. Remove it (still the tail —
		// wmu is held, so nothing enqueued after us) and latch the
		// failure: leaving the slot would desync the in-order response
		// FIFO and deliver later responses to the wrong operations.
		err = fmt.Errorf("client: write: %w", err)
		c.pmu.Lock()
		if n := len(c.pending); n > 0 {
			c.pending = c.pending[:n-1]
			c.npending--
		}
		if c.fatal == nil {
			c.fatal = err
		}
		c.drained.Broadcast()
		c.pmu.Unlock()
		c.nc.Close() // wake the read loop so it fails waiters out
		return err
	}
	return nil
}

// flushLocked writes every pending segment with one vectored write
// (writev) and resets the accumulation state. Callers hold wmu.
func (c *Client) flushLocked() error {
	if c.wpend == 0 {
		return nil
	}
	c.iov = c.iov[:0]
	c.iov = append(c.iov, c.segs...)
	if tail := c.wbuf[c.wmark:]; len(tail) > 0 {
		c.iov = append(c.iov, tail)
	}
	var err error
	if len(c.iov) == 1 {
		_, err = c.nc.Write(c.iov[0])
	} else {
		// WriteTo consumes the header it is called on, so it gets its
		// own over iov's array. A field and not a local: WriteTo's
		// receiver escapes, and a local header would be moved to the
		// heap on every flush.
		c.wv = c.iov
		_, err = c.wv.WriteTo(c.nc)
	}
	c.segs = c.segs[:0]
	c.wbuf = c.wbuf[:0]
	c.wmark = 0
	c.wpend = 0
	return err
}

// flushWrites flushes the accumulated frames; a failure is
// connection-fatal (the server may have seen a partial frame), so it
// latches c.fatal and closes the connection — the read loop then fails
// every pending slot out, instead of leaving waiters blocked on
// responses that can never arrive.
func (c *Client) flushWrites() error {
	c.wmu.Lock()
	err := c.flushLocked()
	c.wmu.Unlock()
	if err == nil {
		return nil
	}
	err = fmt.Errorf("client: write: %w", err)
	c.pmu.Lock()
	if c.fatal == nil {
		c.fatal = err
	}
	c.drained.Broadcast()
	c.pmu.Unlock()
	c.nc.Close()
	return err
}

// roundTrip sends one frame and waits for its in-order response.
func (c *Client) roundTrip(version, typ byte, build func(dst []byte) []byte) (response, error) {
	return c.roundTripBlob(version, typ, nil, build)
}

// roundTripBlob is roundTrip with a payload tail that may ship as its
// own writev segment; blob stays alive until the response arrives,
// which is exactly the zero-copy retention contract send requires.
func (c *Client) roundTripBlob(version, typ byte, blob []byte, build func(dst []byte) []byte) (response, error) {
	ch := make(chan response, 1)
	if err := c.send(version, typ, ch, blob, build); err != nil {
		return response{}, err
	}
	if err := c.flushWrites(); err != nil {
		return response{}, err
	}
	resp := <-ch
	if resp.err != nil {
		return response{}, resp.err
	}
	if resp.typ == wire.FrameErr {
		return response{}, parseServerError(resp.payload)
	}
	return resp, nil
}

// Flush writes out every buffered frame and waits until the server has
// acknowledged all outstanding operations, returning the first
// asynchronous ingest error (if any) exactly once.
func (c *Client) Flush() error {
	if err := c.flushWrites(); err != nil {
		return err
	}
	c.pmu.Lock()
	defer c.pmu.Unlock()
	for c.npending > 0 && c.fatal == nil {
		c.drained.Wait()
	}
	if c.fatal != nil {
		return c.fatal
	}
	err := c.asyncErr
	c.asyncErr = nil
	return err
}

// Close flushes, waits for outstanding acknowledgements, and closes
// the connection. The flush error (or first latched ingest error) is
// returned.
func (c *Client) Close() error {
	err := c.Flush()
	c.pmu.Lock()
	c.closed = true
	c.pmu.Unlock()
	if cerr := c.nc.Close(); err == nil && cerr != nil && !errors.Is(cerr, net.ErrClosed) {
		err = cerr
	}
	return err
}

// --- ingest (asynchronous, batched) ---

// item is the set of keyed-batch value types: uint64 items (Θ, HLL),
// float64 samples (quantiles) and string items the server hashes.
type item interface {
	uint64 | float64 | string
}

// ingest sends one keyed batch — the table name, the key type, the
// count, the key run, then the value run — as a KEYED_STRING_BATCH
// frame for string items, else a KEYED_BATCH frame. Asynchronous:
// errors surface at Flush.
func ingest[K core.Key, V item](c *Client, tbl string, keys []K, vals []V) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("client: keys/vals length mismatch %d != %d", len(keys), len(vals))
	}
	typ := wire.FrameKeyedBatch
	if _, ok := any(vals).([]string); ok {
		typ = wire.FrameKeyedStringBatch
	}
	return c.send(c.version, typ, nil, nil, func(dst []byte) []byte {
		dst = wire.AppendString(dst, tbl)
		dst = append(dst, core.KeyType[K]())
		dst = wire.AppendUvarint(dst, uint64(len(keys)))
		return appendRun(appendRun(dst, keys), vals)
	})
}

// appendRun appends a run of keys or values in their wire encoding:
// uint64s as 8 bytes LE, float64s as their IEEE-754 bits, strings as
// uvarint length + bytes.
func appendRun[T item](dst []byte, run []T) []byte {
	switch r := any(run).(type) {
	case []uint64:
		for _, v := range r {
			dst = wire.AppendUint64(dst, v)
		}
	case []float64:
		for _, v := range r {
			dst = wire.AppendFloat64(dst, v)
		}
	case []string:
		for _, v := range r {
			dst = wire.AppendString(dst, v)
		}
	}
	return dst
}

// IngestU64 streams a keyed batch (uint64 keys, uint64 items) into the
// named Θ or HLL table. Asynchronous: errors surface at Flush.
func (c *Client) IngestU64(tbl string, keys, vals []uint64) error {
	return ingest(c, tbl, keys, vals)
}

// Ingest streams a keyed batch (string keys, uint64 items) into the
// named Θ or HLL table. Asynchronous: errors surface at Flush.
func (c *Client) Ingest(tbl string, keys []string, vals []uint64) error {
	return ingest(c, tbl, keys, vals)
}

// IngestFloat streams a keyed batch (string keys, float64 samples)
// into the named quantiles table. Asynchronous: errors surface at
// Flush.
func (c *Client) IngestFloat(tbl string, keys []string, vals []float64) error {
	return ingest(c, tbl, keys, vals)
}

// IngestFloatU64 is IngestFloat with uint64 keys.
func (c *Client) IngestFloatU64(tbl string, keys []uint64, vals []float64) error {
	return ingest(c, tbl, keys, vals)
}

// IngestStrings streams a keyed batch of string items (string keys)
// into the named Θ or HLL table; the server hashes the items.
// Asynchronous: errors surface at Flush.
func (c *Client) IngestStrings(tbl string, keys []string, items []string) error {
	return ingest(c, tbl, keys, items)
}

// IngestStringsU64 is IngestStrings with uint64 keys.
func (c *Client) IngestStringsU64(tbl string, keys []uint64, items []string) error {
	return ingest(c, tbl, keys, items)
}

// --- snapshot shipping ---

// PushSnapshot ships a serialized FCTB table snapshot to the server,
// which merges it into the named table's shared remote aggregate.
// Synchronous: the server's acknowledgement (or failure) is returned.
// Merge semantics suit one-shot or delta ships; a pusher that
// repeatedly ships its full cumulative snapshot must use
// PushSnapshotFrom so re-ships replace instead of re-counting.
func (c *Client) PushSnapshot(tbl string, blob []byte) error {
	return c.PushSnapshotFrom(tbl, "", blob)
}

// PushSnapshotFrom ships a snapshot tagged with a source id: the
// server replaces the previous snapshot it holds for that source
// rather than merging, so periodic cumulative ships stay correct for
// every family (a re-merged quantiles snapshot would re-count all its
// samples each tick). Distinct sources still aggregate. An empty
// source is PushSnapshot's merge semantics.
func (c *Client) PushSnapshotFrom(tbl, source string, blob []byte) error {
	_, err := c.roundTripBlob(c.version, wire.FrameSnapshotPush, blob, func(dst []byte) []byte {
		dst = wire.AppendString(dst, tbl)
		return wire.AppendString(dst, source)
	})
	return err
}

// PushWindowSnapshot ships a windowed table's sealed-epoch snapshot
// (window.Table.WindowSnapshot serialized as FCTB) tagged with a
// source id and the shipper's rotation epoch. The server replaces the
// source's previous window snapshot only when epoch is >= the last
// applied one, so retries and duplicate ships (a reconnecting client
// re-delivering its outbox) are idempotent and stale reordered ships
// are ignored rather than rolling the window back. The source must be
// non-empty, and a restarted shipper (epoch counter back at zero) must
// use a fresh source id.
func (c *Client) PushWindowSnapshot(tbl, source string, epoch uint64, blob []byte) error {
	if source == "" {
		return errors.New("client: window snapshot requires a source id")
	}
	_, err := c.roundTripBlob(c.version, wire.FrameWindowSnapshot, blob, func(dst []byte) []byte {
		dst = wire.AppendString(dst, tbl)
		dst = wire.AppendString(dst, source)
		return wire.AppendUvarint(dst, epoch)
	})
	return err
}

// PullSnapshot fetches the named table's full merged snapshot (live
// keys merged with every snapshot the server has received) as a
// serialized FCTB blob, ready for Unmarshal*Snapshot or a PushSnapshot
// to another node.
func (c *Client) PullSnapshot(tbl string) ([]byte, error) {
	resp, err := c.roundTrip(c.version, wire.FrameSnapshotPull, func(dst []byte) []byte {
		return wire.AppendString(dst, tbl)
	})
	if err != nil {
		return nil, err
	}
	return resp.payload, nil
}

// --- queries ---

// queryCompact sends one QUERY frame for key and parses the answer.
func queryCompact[K core.Key](c *Client, tbl string, key K) (kind byte, blob []byte, found bool, err error) {
	resp, err := c.roundTrip(c.version, wire.FrameQuery, func(dst []byte) []byte {
		dst = wire.AppendString(dst, tbl)
		dst = append(dst, core.KeyType[K]())
		return appendRun(dst, []K{key})
	})
	if err != nil {
		return 0, nil, false, err
	}
	r := wire.Reader{Buf: resp.payload}
	if r.Byte() == 0 {
		if r.Err != nil || r.Remaining() != 0 {
			return 0, nil, false, errors.New("client: malformed query response")
		}
		return 0, nil, false, nil
	}
	kind = r.Byte()
	blob = r.Rest()
	if r.Err != nil {
		return 0, nil, false, errors.New("client: malformed query response")
	}
	return kind, blob, true, nil
}

// QueryCompact fetches one string key's compact sketch — the live
// sketch merged with any snapshot state the server received for that
// key. found is false when the key is unknown on the server. The blob
// parses with the family's compact unmarshaller (kind identifies it).
func (c *Client) QueryCompact(tbl string, key string) (kind byte, blob []byte, found bool, err error) {
	return queryCompact(c, tbl, key)
}

// QueryCompactU64 is QueryCompact with a uint64 key.
func (c *Client) QueryCompactU64(tbl string, key uint64) (kind byte, blob []byte, found bool, err error) {
	return queryCompact(c, tbl, key)
}

// Rollup fetches the named table's all-keys merged compact (live keys
// plus received snapshots); the blob parses with the family's compact
// unmarshaller.
func (c *Client) Rollup(tbl string) (kind byte, blob []byte, err error) {
	resp, err := c.roundTrip(c.version, wire.FrameRollup, func(dst []byte) []byte {
		return wire.AppendString(dst, tbl)
	})
	if err != nil {
		return 0, nil, err
	}
	r := wire.Reader{Buf: resp.payload}
	kind = r.Byte()
	blob = r.Rest()
	if r.Err != nil {
		return 0, nil, errors.New("client: malformed rollup response")
	}
	return kind, blob, nil
}

// Health fetches the server's counter snapshot.
func (c *Client) Health() (Health, error) {
	resp, err := c.roundTrip(c.version, wire.FrameHealth, func(dst []byte) []byte { return dst })
	if err != nil {
		return Health{}, err
	}
	r := wire.Reader{Buf: resp.payload}
	h := Health{
		Version:   r.Byte(),
		Tables:    int(r.Uvarint()),
		Keys:      int(r.Uvarint()),
		Conns:     int(r.Uvarint()),
		Frames:    r.Uvarint(),
		Items:     r.Uvarint(),
		Snapshots: r.Uvarint(),
		Errors:    r.Uvarint(),
	}
	if r.Err != nil {
		return Health{}, errors.New("client: malformed health response")
	}
	// Checkpoint age (milliseconds) trails the original fields so a
	// newer client still parses an older server's HEALTH payload.
	if r.Remaining() > 0 {
		ms := r.Uvarint()
		if r.Err != nil {
			return Health{}, errors.New("client: malformed health response")
		}
		h.CheckpointAge = time.Duration(ms) * time.Millisecond
		// Age-only servers clamp a real age to >= 1ms, so nonzero means
		// a checkpoint exists; the explicit flag below overrides when
		// the server is new enough to send it.
		h.HasCheckpoint = ms > 0
	}
	if r.Remaining() > 0 {
		h.HasCheckpoint = r.Byte() == 1
		if r.Err != nil {
			return Health{}, errors.New("client: malformed health response")
		}
	}
	// Journal recovery fields trail the checkpoint flag under the same
	// append-only contract.
	if r.Remaining() > 0 {
		h.JournalReplayed = r.Uvarint()
		h.JournalReplayAge = time.Duration(r.Uvarint()) * time.Millisecond
		h.HasJournal = r.Byte() == 1
		if r.Err != nil {
			return Health{}, errors.New("client: malformed health response")
		}
	}
	return h, nil
}
