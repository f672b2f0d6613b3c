// Package server implements the fcds network ingest server: a TCP
// endpoint speaking the length-prefixed binary protocol of
// internal/server/wire, terminating keyed-batch frames straight into
// the registered tables' UpdateKeyedBatch path and shipping FCTB table
// snapshots between nodes (push and pull) — the distributed-
// aggregation fabric the mergeable-sketch design exists for.
//
// One goroutine serves each connection: frames are read through a
// burst window sized from the length prefix (a pipelined burst of
// batches costs one read syscall and frames decode in place, zero
// copies off the socket buffer), streamed with an allocation-free
// cursor straight into the grouping scratch of a table writer handle
// checked out of the table's pool, so the steady-state ingest path
// allocates nothing (string keys excepted — the table retains those).
// Responses are written through a buffered writer that flushes only
// when the connection's pipelined input is exhausted, so a client
// streaming batches pays one syscall per burst, not per frame.
//
// Shutdown is drain-based: Close stops the accept loop, then
// interrupts every connection's next blocking read; a frame already
// received keeps its in-flight processing, writes its response, and
// only then does the connection close.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/metrics"
	"github.com/fcds/fcds/internal/server/wire"
)

// Config configures a Server. The zero value is usable.
type Config struct {
	// IdleTimeout closes a connection whose next frame does not arrive
	// within it, so half-open peers (an edge that lost power, a NAT
	// entry that expired) cannot pin goroutines and writer slots
	// forever. Zero (the default) keeps the historical behavior —
	// reads block indefinitely; fcds-serve enables it. Clients that
	// idle legitimately (a dashboard polling HEALTH slower than the
	// timeout) reconnect on demand — the reconnecting Reliable client
	// does this transparently.
	IdleTimeout time.Duration
	// Logf, when non-nil, receives connection-level diagnostics
	// (accept errors, protocol violations). Nil means silent.
	Logf func(format string, args ...any)
	// CheckpointRetain is how many checkpoint generations WriteCheckpoints
	// keeps per table (and how many journal files survive the matching
	// prune). <= 0 means DefaultRetain. Raising it trades disk for the
	// ability to fall back further when generations corrupt at rest.
	CheckpointRetain int
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Tables is the number of registered tables; Keys sums their live
	// key counts.
	Tables, Keys int
	// Conns is the number of currently open connections; ConnsTotal
	// counts every connection ever accepted.
	Conns, ConnsTotal int64
	// Frames counts request frames processed, Items keyed updates
	// ingested, Snapshots remote snapshots merged, Errors error frames
	// returned.
	Frames, Items, Snapshots, Errors int64
}

// Server is a network ingest endpoint for registered keyed tables.
// Register tables, then Serve a listener (or ListenAndServe); Close
// drains and stops it. The server owns every registered table's writer
// handles — see Register.
type Server struct {
	cfg Config

	mu     sync.Mutex
	tables map[string]backend
	tstats map[string]*tableCounters
	conns  map[net.Conn]struct{}
	ln     net.Listener

	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	frames    atomic.Int64
	items     atomic.Int64
	snapshots atomic.Int64
	errs      atomic.Int64
	connsOpen atomic.Int64
	connsSeen atomic.Int64

	// lastCheckpoint is the unix-nano timestamp of the newest durable
	// checkpoint this server wrote or recovered (0 = never); HEALTH
	// reports its age so monitors can bound crash data loss.
	lastCheckpoint atomic.Int64
	// checkpoints counts completed WriteCheckpoints passes; ckptHist,
	// when metrics are registered, receives each pass's wall time.
	checkpoints atomic.Int64
	ckptHist    atomic.Pointer[metrics.Histogram]
	// ckptGen issues strictly increasing checkpoint generation numbers
	// (seeded from disk on restore, bumped past itself every pass).
	ckptGen atomic.Uint64

	// journal is the attached durability journal (nil = disabled); the
	// backends append to it under their own rmu, WriteCheckpoints
	// rotates and prunes it. replayRecords/replayTS describe the last
	// boot's ReplayJournal pass for HEALTH, /healthz and metrics:
	// records applied, and the newest applied record's append
	// timestamp (unix nanos, 0 = nothing replayed).
	journal       atomic.Pointer[Journal]
	replayRecords atomic.Int64
	replayTS      atomic.Int64

	// metricsMu guards the attached registry and the per-(table,source)
	// push timestamps behind the snapshot-push lag gauges.
	metricsMu  sync.Mutex
	metricsReg *metrics.Registry
	pushTimes  map[pushKey]*atomic.Int64
}

// tableCounters attributes the server's frame traffic to one registered
// table; cells are bumped on the connection goroutines and read by the
// metrics registry at scrape time.
type tableCounters struct {
	frames, items, bytes, errs atomic.Int64
}

// pushKey identifies one snapshot-pushing source on one table.
type pushKey struct{ table, source string }

// New returns an idle server; register tables and then Serve it.
func New(cfg Config) *Server {
	return &Server{
		cfg:       cfg,
		tables:    make(map[string]backend),
		tstats:    make(map[string]*tableCounters),
		conns:     make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
		pushTimes: make(map[pushKey]*atomic.Int64),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// register binds a backend to a table name (Register is the public
// surface). A second name for a table already registered is refused:
// each backend drives every writer slot of its table, and two would
// drive one key's slot from two goroutines at once.
func (s *Server) register(name string, b backend) error {
	if name == "" {
		return errors.New("server: empty table name")
	}
	tc := &tableCounters{}
	s.mu.Lock()
	if _, dup := s.tables[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("server: table %q already registered", name)
	}
	for other, ob := range s.tables {
		if ob.owner() == b.owner() {
			s.mu.Unlock()
			return fmt.Errorf("server: cannot register %q: the table is already registered as %q", name, other)
		}
	}
	s.tables[name] = b
	s.tstats[name] = tc
	s.mu.Unlock()
	b.bind(name, &s.journal)
	// Export the table's series immediately when a registry is already
	// attached (tables registered before RegisterMetrics are picked up
	// there instead). Outside s.mu: the registry takes its own lock.
	s.metricsMu.Lock()
	reg := s.metricsReg
	s.metricsMu.Unlock()
	if reg != nil {
		s.registerTableMetrics(reg, name, b, tc)
	}
	return nil
}

func (s *Server) lookup(name string) (backend, bool) {
	s.mu.Lock()
	b, ok := s.tables[name]
	s.mu.Unlock()
	return b, ok
}

// lookupCounters resolves a table and its attribution counters.
func (s *Server) lookupCounters(name string) (backend, *tableCounters, bool) {
	s.mu.Lock()
	b, ok := s.tables[name]
	tc := s.tstats[name]
	s.mu.Unlock()
	return b, tc, ok
}

// AttachJournal arms write-ahead journaling: from this call on, every
// named-source push, window ship and eviction spill is appended to j
// (and fsynced per its config) BEFORE it mutates in-memory state, and
// WriteCheckpoints rotates and prunes j as part of each pass. Call the
// boot sequence in order — RestoreCheckpoints, ReplayJournal,
// OpenJournal, AttachJournal — before Start, so recovery replays the
// previous process's files and new records land in a fresh one.
func (s *Server) AttachJournal(j *Journal) {
	s.journal.Store(j)
}

// Journal returns the attached journal, nil when journaling is off.
func (s *Server) Journal() *Journal {
	return s.journal.Load()
}

// ReplayJournal re-applies the journal tail in dir on top of restored
// checkpoints: every record above its table's restored LSN watermark
// is decoded, admitted and applied by the step the original frame or
// spill took; a record at or below it is skipped after its frame CRC,
// without decoding its blob (the checkpoint already contains it). The
// records to apply are admitted ahead, a window of GOMAXPROCS records
// at a time decoding concurrently, and applied one by one in LSN order
// (admitThenApply). A whole file is skipped unread when the next file's
// first record is at most one past the lowest watermark of the
// registered tables (0 when any table has none): every record in it is
// covered. Torn tails are truncated, and records for tables this
// configuration no longer registers are logged and counted but do not
// fail the boot. Call it after RestoreCheckpoints and before
// AttachJournal/Start.
func (s *Server) ReplayJournal(dir string) (JournalReplayStats, error) {
	win := make([]staged, 0, core.ReadDegree(0))
	flush := func(st *JournalReplayStats) {
		_ = admitThenApply(win, false, func(p *staged) error {
			applied, stale, err := false, false, p.err
			if err == nil {
				applied, stale, err = p.b.applyAdmitted(p.rec, p.adm)
			}
			switch {
			case err != nil:
				// The record was intact (CRC passed) but no longer
				// applies — typically a table re-registered with
				// different parameters. Recovery keeps going: one stale
				// record must not brick the node, and the skip is logged
				// and counted for operators.
				st.Errors++
				s.logf("server: journal replay: table %q lsn=%d: %v (record skipped)", p.rec.Table, p.rec.LSN, err)
			case stale:
				st.Stale++
			case applied:
				st.Records++
				if p.rec.TS > st.NewestTS {
					st.NewestTS = p.rec.TS
				}
			default:
				st.Skipped++
			}
			return nil
		})
		clear(win) // drop the decoded images: applied ones live on in the state
		win = win[:0]
	}
	st, err := replayJournalDir(dir, s.coveredThrough(), func(rec *JournalRecord, st *JournalReplayStats) error {
		b, ok := s.lookup(rec.Table)
		if !ok {
			st.UnknownTable++
			s.logf("server: journal replay: table %q not registered, skipping record lsn=%d", rec.Table, rec.LSN)
			return nil
		}
		// By the journal's LSN order, the records still waiting in the
		// window lie below this one, so applying them first could not
		// cover it.
		if rec.LSN <= b.watermark() {
			st.Skipped++
			return nil
		}
		if win = append(win, staged{b: b, rec: rec}); len(win) == cap(win) {
			flush(st)
		}
		return nil
	}, s.cfg.Logf)
	flush(&st)
	if err != nil {
		return st, err
	}
	s.replayRecords.Store(int64(st.Records))
	s.replayTS.Store(st.NewestTS)
	if st.Files+st.SkippedFiles > 0 {
		s.logf("server: journal replay: %d files, %d files already checkpointed, %d records applied, %d already checkpointed, %d unknown-table, %d stale, %d errors, %d torn bytes truncated",
			st.Files, st.SkippedFiles, st.Records, st.Skipped, st.UnknownTable, st.Stale, st.Errors, st.TornBytes)
	}
	return st, nil
}

// coveredThrough is the lowest watermark of the registered tables (0
// when any table has none, or none is registered): every journal
// record at or below it is already in the state.
func (s *Server) coveredThrough() uint64 {
	s.mu.Lock()
	tables := slices.Collect(maps.Values(s.tables))
	s.mu.Unlock()
	if len(tables) == 0 {
		return 0
	}
	through := tables[0].watermark()
	for _, b := range tables[1:] {
		through = min(through, b.watermark())
	}
	return through
}

// JournalReplay reports the last boot's replay pass: how many records
// recovered state beyond the restored checkpoints, and the age of the
// newest one (ok is false when nothing was replayed). The age bounds
// how far behind the checkpoint the journal carried this process.
func (s *Server) JournalReplay() (records int64, age time.Duration, ok bool) {
	records = s.replayRecords.Load()
	ts := s.replayTS.Load()
	if ts == 0 {
		return records, 0, false
	}
	return records, time.Since(time.Unix(0, ts)), true
}

// SpillEvictString folds one evicted string key's serialized compact
// back into the named table's remote aggregate — the OnEvict hook for
// string-keyed registered tables (fcds-serve wires it when journaling
// is on). With a journal attached the spill is journaled first, so
// TTL-evicted data survives both the eviction and a crash.
func (s *Server) SpillEvictString(tableName, key string, compact []byte) error {
	return s.spill(tableName, JournalRecord{Type: jrecEvict, KeyType: wire.KeyTypeString, Key: []byte(key), Blob: compact})
}

// SpillEvictU64 is SpillEvictString for uint64-keyed tables.
func (s *Server) SpillEvictU64(tableName string, key uint64, compact []byte) error {
	return s.spill(tableName, JournalRecord{Type: jrecEvict, KeyType: wire.KeyTypeUint64, Key: wire.AppendUint64(nil, key), Blob: compact})
}

// spill applies one eviction spill record to the named table.
func (s *Server) spill(tableName string, rec JournalRecord) error {
	b, ok := s.lookup(tableName)
	if !ok {
		return fmt.Errorf("server: unknown table %q", tableName)
	}
	if _, _, err := b.apply(rec); err != nil {
		return fmt.Errorf("server: evict spill: %w", err)
	}
	return nil
}

// SnapshotTable captures the named table's full merged snapshot — the
// same bytes a SNAPSHOT_PULL returns: writer slots quiesced, table
// drained, every received remote snapshot merged in. This is the
// in-process hook for embedders shipping snapshots on their own
// schedule (fcds-serve's -push loop), safe while the server is
// serving and after Close.
func (s *Server) SnapshotTable(name string) ([]byte, error) {
	b, ok := s.lookup(name)
	if !ok {
		return nil, fmt.Errorf("server: unknown table %q", name)
	}
	return b.snapshotAppend(nil)
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	tables := len(s.tables)
	keys := 0
	for _, b := range s.tables {
		keys += b.liveKeys()
	}
	s.mu.Unlock()
	return Stats{
		Tables: tables, Keys: keys,
		Conns: s.connsOpen.Load(), ConnsTotal: s.connsSeen.Load(),
		Frames: s.frames.Load(), Items: s.items.Load(),
		Snapshots: s.snapshots.Load(), Errors: s.errs.Load(),
	}
}

// ListenAndServe listens on addr (TCP) and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Bind records ln as the server's listener so Addr reports it;
// Serve(ln) binds implicitly, but a caller starting Serve in a
// goroutine (fcds.Serve) binds first so Addr is immediately usable
// with ":0" listeners.
func (s *Server) Bind(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
}

// Start listens on addr (TCP) and accepts in the background; Addr is
// valid as soon as Start returns. Register tables before Start so the
// first connections can never race registration and see unknown-table
// errors. A fatal accept error stops new connections while existing
// ones keep serving — it is surfaced through Config.Logf.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Bind(ln)
	go func() {
		if err := s.Serve(ln); err != nil {
			s.logf("server: accept loop failed: %v", err)
		}
	}()
	return nil
}

// Serve accepts connections on ln until Close; it returns nil after a
// graceful Close, or the first fatal accept error. Transient accept
// failures (fd exhaustion, aborted handshakes) are retried with
// backoff instead of killing the listener.
func (s *Server) Serve(ln net.Listener) error {
	s.Bind(ln)
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				s.logf("server: accept: %v; retrying in %v", err, backoff)
				select {
				case <-time.After(backoff):
					continue
				case <-s.done:
					return nil
				}
			}
			return err
		}
		backoff = 0
		// Registration re-checks closed under the same lock Close uses
		// to interrupt connections: either this conn is registered
		// before Close scans s.conns (and gets interrupted and awaited),
		// or it observes closed and dies here — it can never slip
		// between Close's interrupt scan and wg.Wait.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsOpen.Add(1)
		s.connsSeen.Add(1)
		go s.serveConn(nc)
	}
}

// Addr returns the listener address (useful with ":0" listeners), or
// nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close drains and stops the server: the accept loop ends, every
// connection finishes the frame it is processing (a blocked read is
// interrupted), responses are flushed, and all connection goroutines
// have exited when Close returns. Registered tables are not closed —
// they belong to the caller.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.done)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	now := time.Now()
	for nc := range s.conns {
		// Interrupt the connection's next (or current) blocking read;
		// frames already received keep processing and respond first.
		nc.SetReadDeadline(now)
		// Bound the response writes too: a peer that stopped reading
		// (full TCP window) would otherwise block a connection goroutine
		// in Flush forever and hang the wg.Wait below. The grace keeps
		// the drain contract — in-flight responses normally flush in
		// well under it.
		nc.SetWriteDeadline(now.Add(closeWriteGrace))
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// closeWriteGrace bounds how long a draining connection may spend
// writing its final responses after Close before its writes are cut.
const closeWriteGrace = 5 * time.Second

// connState is one connection's reusable I/O state.
type connState struct {
	wbuf []byte      // response payload assembly buffer
	req  wire.Reader // request payload cursor, reused so the pointer handed through the backend interface never escapes per frame
}

// writeBurst sizes each connection's buffered response writer; its
// read window is wire.DefaultReadBurst.
const writeBurst = 64 << 10

// serveConn runs one connection's frame loop.
func (s *Server) serveConn(nc net.Conn) {
	defer func() {
		// Last-resort guard: a decode or handler bug costs this
		// connection, not the process (defense in depth behind the
		// payload validation; backend lock sections unlock via defer,
		// so the unwind releases them before this recover runs).
		if p := recover(); p != nil {
			s.logf("server: %s: panic serving connection: %v", nc.RemoteAddr(), p)
		}
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.connsOpen.Add(-1)
		s.wg.Done()
	}()

	cs := &connState{}
	fr := wire.NewFrameReader(nc, wire.DefaultReadBurst, wire.DefaultMaxFrame)
	bw := bufio.NewWriterSize(nc, writeBurst)
	negotiated := byte(0) // no HELLO yet

	fail := func(code uint64, msg string) {
		// Fatal protocol error: best-effort error frame, then close.
		s.errs.Add(1)
		cs.wbuf = wire.AppendErrPayload(cs.wbuf[:0], code, msg)
		ver := negotiated
		if ver == 0 {
			ver = wire.Version
		}
		_ = wire.WriteFrame(bw, ver, wire.FrameErr, cs.wbuf)
		_ = bw.Flush()
	}

	idle := s.cfg.IdleTimeout
	for {
		if idle > 0 {
			// Bound the wait for the next frame. Close may run
			// concurrently and set an immediate deadline to interrupt
			// this read; re-checking closed AFTER arming ours guarantees
			// the interrupt can never be overwritten by the idle
			// deadline (whichever order the two SetReadDeadline calls
			// land in, a closed server leaves the deadline immediate).
			nc.SetReadDeadline(time.Now().Add(idle))
			if s.closed.Load() {
				nc.SetReadDeadline(time.Now())
			}
		}
		ver, typ, flags, payload, err := fr.Next()
		if err != nil {
			if idle > 0 && errors.Is(err, os.ErrDeadlineExceeded) && !s.closed.Load() {
				s.logf("server: %s: closing idle connection (no frame in %v)", nc.RemoteAddr(), idle)
			}
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
				errors.Is(err, net.ErrClosed), errors.Is(err, os.ErrDeadlineExceeded):
				// Client went away or shutdown interrupted the read.
			default:
				s.logf("server: %s: read: %v", nc.RemoteAddr(), err)
				fail(wire.ErrCodeBadFrame, err.Error())
			}
			_ = bw.Flush()
			return
		}

		if negotiated == 0 {
			// The first frame must negotiate a version: a 1-byte payload
			// is the historical HELLO; older clients may append a byte of
			// feature bits, none of which this server accepts. Flags are
			// never valid.
			if typ != wire.FrameHello || flags != 0 || len(payload) < 1 || len(payload) > 2 {
				fail(wire.ErrCodeBadFrame, "expected HELLO as first frame")
				return
			}
			negotiated = min(payload[0], wire.Version)
			if negotiated == 0 {
				fail(wire.ErrCodeVersion, "no common protocol version")
				return
			}
			// Echo the payload shape received: clients predating the
			// feature byte reject any reply that is not exactly 1 byte,
			// and a feature byte of 0 refuses every feature offered.
			cs.wbuf = append(cs.wbuf[:0], negotiated)
			if len(payload) == 2 {
				cs.wbuf = append(cs.wbuf, 0)
			}
			if err := wire.WriteFrame(bw, negotiated, wire.FrameHello, cs.wbuf); err != nil {
				return
			}
			if fr.Buffered() == 0 {
				if bw.Flush() != nil {
					return
				}
			}
			continue
		}
		if ver != negotiated {
			fail(wire.ErrCodeVersion, fmt.Sprintf("frame version %d, negotiated %d", ver, negotiated))
			return
		}
		if flags != 0 {
			// No flag bit is ever negotiated: the reserved-must-be-zero
			// contract.
			fail(wire.ErrCodeBadFrame, fmt.Sprintf("unexpected frame flags %#x", flags))
			return
		}

		s.frames.Add(1)
		respType, respPayload, tc, reqErr := s.handle(cs, typ, payload)
		if tc != nil {
			tc.frames.Add(1)
			tc.bytes.Add(int64(len(payload)))
		}
		if reqErr != nil {
			s.errs.Add(1)
			if tc != nil {
				tc.errs.Add(1)
			}
			var re *reqError
			code := wire.ErrCodeInternal
			if errors.As(reqErr, &re) {
				code = re.code
			}
			respType = wire.FrameErr
			respPayload = wire.AppendErrPayload(cs.wbuf[:0], code, reqErr.Error())
		}
		if err := wire.WriteFrame(bw, negotiated, respType, respPayload); err != nil {
			return
		}
		// Flush only when the pipelined input is exhausted: bursts of
		// batches cost one write syscall, and the final response is
		// never stuck behind an empty read.
		if fr.Buffered() == 0 {
			if bw.Flush() != nil {
				return
			}
		}
		select {
		case <-s.done:
			_ = bw.Flush()
			return
		default:
		}
	}
}

// handle dispatches one request frame and returns the response frame
// plus the resolved table's attribution counters (nil for table-less
// frames and unknown tables). The response payload may alias cs.wbuf
// (written out before the next read reuses it).
func (s *Server) handle(cs *connState, typ byte, payload []byte) (byte, []byte, *tableCounters, error) {
	r := &cs.req
	*r = wire.Reader{Buf: payload}
	switch typ {
	case wire.FrameHello:
		// Renegotiation mid-stream is a protocol violation: answered
		// with an ERR frame, though the connection stays usable.
		return wire.FrameErr, nil, nil, errBadPayload("duplicate HELLO")

	case wire.FrameKeyedBatch, wire.FrameKeyedStringBatch:
		b, tc, _, err := s.namedBackend(r)
		if err != nil {
			return 0, nil, tc, err
		}
		n, err := b.ingest(r, typ == wire.FrameKeyedStringBatch)
		if err != nil {
			return 0, nil, tc, err
		}
		s.items.Add(int64(n))
		tc.items.Add(int64(n))
		return wire.FrameOK, nil, tc, nil

	case wire.FrameSnapshotPush, wire.FrameWindowSnapshot:
		b, tc, name, err := s.namedBackend(r)
		if err != nil {
			return 0, nil, tc, err
		}
		// The source id is copied (r.String), not viewed: named sources
		// key the backend's per-source snapshot map, which outlives the
		// connection's read buffer.
		rec := JournalRecord{Type: jrecPush, Source: r.String()}
		if typ == wire.FrameWindowSnapshot {
			rec.Type, rec.Epoch = jrecWindow, r.Uvarint()
			if r.Err == nil && rec.Source == "" {
				return 0, nil, tc, errBadPayload("window snapshot requires a source id")
			}
		}
		if r.Err != nil {
			return 0, nil, tc, errBadPayload("truncated snapshot header")
		}
		rec.Blob = r.Rest()
		applied, _, err := b.apply(rec)
		if err != nil {
			return 0, nil, tc, err
		}
		// A stale epoch answers OK without counting: the ship is a
		// retry or reorder the receiver already covers — telling the
		// pusher "failed" would only make it retry the same bytes.
		if applied {
			s.snapshots.Add(1)
			if rec.Source != "" {
				s.notePush(name, rec.Source)
			}
		}
		return wire.FrameOK, nil, tc, nil

	case wire.FrameSnapshotPull:
		b, tc, _, err := s.namedBackend(r)
		if err != nil {
			return 0, nil, tc, err
		}
		if r.Remaining() != 0 {
			return 0, nil, tc, errBadPayload("trailing bytes after table name")
		}
		out, err := b.snapshotAppend(cs.wbuf[:0])
		if err != nil {
			return 0, nil, tc, err
		}
		cs.wbuf = out
		return wire.FrameValue, out, tc, nil

	case wire.FrameQuery:
		b, tc, _, err := s.namedBackend(r)
		if err != nil {
			return 0, nil, tc, err
		}
		out, err := b.queryCompact(r, cs.wbuf[:0])
		if err != nil {
			return 0, nil, tc, err
		}
		cs.wbuf = out
		return wire.FrameValue, out, tc, nil

	case wire.FrameRollup:
		b, tc, _, err := s.namedBackend(r)
		if err != nil {
			return 0, nil, tc, err
		}
		if r.Remaining() != 0 {
			return 0, nil, tc, errBadPayload("trailing bytes after table name")
		}
		out, err := b.rollupAppend(cs.wbuf[:0])
		if err != nil {
			return 0, nil, tc, err
		}
		cs.wbuf = out
		return wire.FrameValue, out, tc, nil

	case wire.FrameHealth:
		st := s.Stats()
		out := cs.wbuf[:0]
		out = append(out, wire.Version)
		out = wire.AppendUvarint(out, uint64(st.Tables))
		out = wire.AppendUvarint(out, uint64(st.Keys))
		out = wire.AppendUvarint(out, uint64(st.Conns))
		out = wire.AppendUvarint(out, uint64(st.Frames))
		out = wire.AppendUvarint(out, uint64(st.Items))
		out = wire.AppendUvarint(out, uint64(st.Snapshots))
		out = wire.AppendUvarint(out, uint64(st.Errors))
		// Checkpoint age in milliseconds, clamped to >= 1 when a
		// checkpoint exists so "has one, just now" is distinguishable
		// from "never checkpointed" (0). Appended last: older clients
		// that stop after Errors still parse the payload.
		ageMS := uint64(0)
		hasCkpt := byte(0)
		if age, ok := s.CheckpointAge(); ok {
			ageMS = max(uint64(age/time.Millisecond), 1)
			hasCkpt = 1
		}
		out = wire.AppendUvarint(out, ageMS)
		// Explicit has-checkpoint flag, appended after ageMS under the
		// same append-only contract: the age alone cannot express
		// "never" once a client rounds it through its own clamping, and
		// older clients that stop after ageMS still parse.
		out = append(out, hasCkpt)
		// Journal recovery fields, appended after hasCkpt under the same
		// append-only contract: records replayed at the last boot, the
		// newest replayed record's age in milliseconds (clamped >= 1
		// when anything replayed, 0 otherwise), and whether a journal is
		// attached at all.
		replayed, replayAge, replayedOK := s.JournalReplay()
		replayAgeMS := uint64(0)
		if replayedOK {
			replayAgeMS = max(uint64(replayAge/time.Millisecond), 1)
		}
		out = wire.AppendUvarint(out, uint64(replayed))
		out = wire.AppendUvarint(out, replayAgeMS)
		hasJournal := byte(0)
		if s.journal.Load() != nil {
			hasJournal = 1
		}
		out = append(out, hasJournal)
		cs.wbuf = out
		return wire.FrameValue, out, nil, nil

	default:
		return 0, nil, nil, errBadPayload("unknown frame type 0x%02x", typ)
	}
}

// namedBackend reads the leading table name and resolves it together
// with the table's attribution counters. The returned name aliases the
// reader's buffer — copy it before retaining.
func (s *Server) namedBackend(r *wire.Reader) (backend, *tableCounters, string, error) {
	name := viewString(r.StringView())
	if r.Err != nil {
		return nil, nil, "", errBadPayload("truncated table name")
	}
	b, tc, ok := s.lookupCounters(name)
	if !ok {
		return nil, nil, "", &reqError{code: wire.ErrCodeUnknownTable, msg: fmt.Sprintf("unknown table %q", name)}
	}
	return b, tc, name, nil
}

// maxPushSources bounds the per-(table, source) push-lag map — a client
// cycling fresh source ids must not grow a gauge per push forever. Past
// the bound, new sources simply go untracked; the backends' own
// maxSnapshotSources keeps real deployments far below it.
const maxPushSources = 4096

// notePush records a successful named snapshot push so the per-source
// lag gauge can report time since the source last shipped. Runs once
// per accepted push (not per frame), so the map work and the one-time
// gauge registration are off the ingest hot path.
func (s *Server) notePush(table, source string) {
	now := time.Now().UnixNano()
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	k := pushKey{table, source}
	cell, ok := s.pushTimes[k]
	if !ok {
		if len(s.pushTimes) >= maxPushSources {
			return
		}
		// The map retains the key: copy the table name off the read
		// buffer it aliases (the source is already an owned copy).
		k.table = strings.Clone(table)
		cell = &atomic.Int64{}
		s.pushTimes[k] = cell
		if s.metricsReg != nil {
			registerPushLag(s.metricsReg, k, cell)
		}
	}
	cell.Store(now)
}
