package main

// sut.go is the only file of the benchmark that calls into the
// repository. Everything the benchmark measures goes through the
// functions pinned here (the list is repeated in README.md), so a
// facade or storage refactor knows which signatures this program
// compiles against:
//
//	fcds.NewConcurrentTheta / NewConcurrentQuantiles / NewConcurrentHLL
//	fcds.NewThetaQuickSelect / NewQuantilesSketch
//	fcds.NewThetaTableU64, fcds.NewWindowedThetaTableU64
//	fcds.Serve / NewIngestServer / Dial / RegisterThetaTableU64,
//	  IngestClient.IngestU64 / Flush / QueryCompactU64 / Rollup /
//	  PushSnapshotFrom
//	fcds.OpenIngestJournal, IngestServer.AttachJournal / ReplayJournal /
//	  WriteCheckpoints / RestoreCheckpoints, IngestJournal.AppendPush
//	fcds.NewMetricsRegistry / RegisterPoolMetrics, *.RegisterMetrics
//	fcds.UnmarshalThetaCompact
//	internal/hash: AppendThetaUint64Filtered, AppendSumUint64
//	internal/stream: NewZipf, NewScrambled
//	internal/server/wire: NewFrameReader, AppendHeader, FrameKeyedBatch

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"github.com/fcds/fcds"
	"github.com/fcds/fcds/internal/hash"
	"github.com/fcds/fcds/internal/server/wire"
	"github.com/fcds/fcds/internal/stream"
)

// Fixed sketch parameters of every workload.
const (
	sketchK  = 4096 // standalone Θ sketch (the paper's evaluation default)
	tableK   = 256  // per-key Θ sketch of every table
	shards   = 1024
	winSlots = 6
	// epochsPerPass is how many window epochs one pass spans: one
	// rotation at the pass barrier, one by writer 0 mid-pass. The
	// window therefore holds exactly the last winSlots/epochsPerPass
	// passes, whatever the interleaving of the two writers.
	epochsPerPass = 2
	srvTable      = "bench"
	aggTable      = "agg"
)

// rse is the relative standard error of a Θ sketch with nominal size k.
func rse(k int) float64 { return 1 / math.Sqrt(float64(k-2)) }

// --- stream generators -------------------------------------------------

// fillZipf draws len(dst) zipf(s=1.2) keys over [0, keys). keys == 1
// is the unkeyed sketch workload: every item belongs to key 0.
func fillZipf(dst []uint64, keys int, seed uint64) {
	if keys <= 1 {
		clear(dst)
		return
	}
	z := stream.NewZipf(uint64(keys), 1.2, seed)
	for i := range dst {
		dst[i] = z.Next()
	}
}

// fillScrambled writes len(dst) distinct values: a fixed bijection of
// the counters start, start+1, ... Disjoint counter ranges never
// collide, so "distinct items sent" is exact by construction.
func fillScrambled(dst []uint64, start uint64) {
	s := stream.NewScrambled(start)
	for i := range dst {
		dst[i] = s.Next()
	}
}

// --- edge: the system under test behind one front ---------------------

// edge is one front of the update path. g is the generator index (0 or
// 1); each generator owns writer handle / connection g.
type edge interface {
	// Ingest hands one chunk to the front (wire: pipelined, not yet
	// acknowledged).
	Ingest(g int, keys, vals []uint64) error
	// Barrier makes everything ingested so far visible and
	// acknowledged. No generator may be inside Ingest.
	Barrier() error
	// IngestAck is Ingest plus that chunk's own acknowledgement.
	IngestAck(g int, keys, vals []uint64) error
	// Query is the front's per-key read.
	Query(g int, key uint64) (est float64, found bool, err error)
	// Rollup is the front's all-keys read.
	Rollup(g int) (est float64, err error)
	// Rotate advances the window (no-op on the other fronts).
	Rotate()
	// Keys is the live key count.
	Keys() int
	// Counters reads the front's layer counters.
	Counters() counters
	// Names are the span names of Ingest, Barrier, IngestAck, Query
	// and Rollup: the repository functions those methods call.
	Names() opNames
	Close() error
}

type opNames struct{ ingest, barrier, ack, query, rollup string }

// counters is one reading of every public counter a front exposes.
type counters struct {
	cacheHits, shardLookups, promotions, demotions int64
	poolRuns, poolSteals, poolWakes                int64
	poolDepth                                      int
	srvFrames, srvItems, srvErrors                 int64
}

func readPool(p *fcds.PropagatorPool, c *counters) {
	for _, w := range p.Stats() {
		c.poolRuns += w.Runs
		c.poolSteals += w.Stolen
		c.poolWakes += w.Wakes
		if w.Depth > c.poolDepth {
			c.poolDepth = w.Depth
		}
	}
}

// registry wraps the metrics registry a traced run attaches.
type registry struct{ r *fcds.MetricsRegistry }

func newRegistry() *registry { return &registry{fcds.NewMetricsRegistry()} }

// sum adds every series of one family, whatever its labels.
func (r *registry) sum(family string) float64 {
	var s float64
	for name, v := range r.r.Values() {
		if name == family || strings.HasPrefix(name, family+"{") {
			s += v
		}
	}
	return s
}

// scrape renders the Prometheus exposition and returns its size.
func (r *registry) scrape() (int, error) {
	var n countWriter
	err := r.r.WritePrometheus(&n)
	return int(n), err
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

// newEdge builds the named front. reg, when non-nil, gets every
// subsystem of the front registered (traced runs only).
func newEdge(front string, reg *registry) (edge, error) {
	switch front {
	case "sketch":
		return newSketchEdge(), nil
	case "table":
		return newTableEdge(reg), nil
	case "window":
		return newWindowEdge(reg), nil
	case "wire":
		return newWireEdge(reg)
	}
	return nil, fmt.Errorf("unknown front %q", front)
}

// sketchEdge: one ConcurrentTheta, two writers, keys ignored.
type sketchEdge struct {
	c *fcds.ConcurrentTheta
	w [generators]*fcds.ThetaWriter
}

func newSketchEdge() *sketchEdge {
	e := &sketchEdge{c: fcds.NewConcurrentTheta(fcds.ConcurrentThetaConfig{K: sketchK, Writers: generators})}
	for g := range e.w {
		e.w[g] = e.c.Writer(g)
	}
	return e
}

func (e *sketchEdge) Ingest(g int, _, vals []uint64) error {
	e.w[g].UpdateUint64Batch(vals)
	return nil
}
func (e *sketchEdge) Barrier() error {
	for _, w := range e.w {
		w.Flush()
	}
	return nil
}
func (e *sketchEdge) IngestAck(g int, _, vals []uint64) error {
	e.w[g].UpdateUint64Batch(vals)
	return nil
}
func (e *sketchEdge) Query(int, uint64) (float64, bool, error) { return e.c.Estimate(), true, nil }
func (e *sketchEdge) Rollup(int) (float64, error)              { return e.c.Compact().Estimate(), nil }
func (e *sketchEdge) Rotate()                                  {}
func (e *sketchEdge) Keys() int                                { return 1 }
func (e *sketchEdge) Counters() counters                       { return counters{} }
func (e *sketchEdge) Close() error                             { e.c.Close(); return nil }
func (e *sketchEdge) Names() opNames {
	return opNames{"UpdateUint64Batch", "Flush", "UpdateUint64Batch", "Estimate", "Compact"}
}

func newThetaTable(writers int) *fcds.ThetaTableU64 {
	return fcds.NewThetaTableU64(fcds.ThetaTableU64Config{
		Table: fcds.TableU64Config{Writers: writers, Shards: shards},
		K:     tableK,
	})
}

// keyedWriter is the part of a table or window writer handle the
// benchmark drives (the facade names no uint64-keyed writer type).
type keyedWriter interface {
	UpdateKeyedBatch(keys []uint64, vals []uint64)
}

// tableEdge: one ThetaTableU64, two writer handles.
type tableEdge struct {
	t *fcds.ThetaTableU64
	w [generators]keyedWriter
}

func newTableEdge(reg *registry) *tableEdge {
	e := &tableEdge{t: newThetaTable(generators)}
	for g := range e.w {
		e.w[g] = e.t.Writer(g)
	}
	if reg != nil {
		e.t.RegisterMetrics(reg.r, srvTable)
		fcds.RegisterPoolMetrics(reg.r, e.t.Pool())
	}
	return e
}

func (e *tableEdge) Ingest(g int, keys, vals []uint64) error {
	e.w[g].UpdateKeyedBatch(keys, vals)
	return nil
}
func (e *tableEdge) Barrier() error { e.t.Drain(); return nil }
func (e *tableEdge) IngestAck(g int, keys, vals []uint64) error {
	e.w[g].UpdateKeyedBatch(keys, vals)
	return nil
}
func (e *tableEdge) Query(_ int, key uint64) (float64, bool, error) {
	est, ok := e.t.Estimate(key)
	return est, ok, nil
}
func (e *tableEdge) Rollup(int) (float64, error) { return e.t.Rollup().Estimate(), nil }
func (e *tableEdge) Rotate()                     {}
func (e *tableEdge) Keys() int                   { return e.t.Keys() }
func (e *tableEdge) Counters() counters          { return tableCounters(e.t) }
func (e *tableEdge) Close() error                { e.t.Close(); return nil }
func (e *tableEdge) Names() opNames {
	return opNames{"UpdateKeyedBatch", "Drain", "UpdateKeyedBatch", "Estimate", "Rollup"}
}

func tableCounters(t *fcds.ThetaTableU64) counters {
	s := t.Stats()
	c := counters{
		cacheHits: s.CacheHits, shardLookups: s.ShardLookups,
		promotions: s.Promotions, demotions: s.Demotions,
	}
	readPool(t.Pool(), &c)
	return c
}

// snapshotBytes times the quiesced whole-table snapshot (ladder only).
func (e *tableEdge) snapshotBytes() (int, error) {
	b, err := e.t.SnapshotAppend(nil)
	return len(b), err
}

// windowEdge: the same table behind a 6-slot epoch ring.
type windowEdge struct {
	t *fcds.WindowedThetaTableU64
	w [generators]keyedWriter
}

func newWindowEdge(reg *registry) *windowEdge {
	e := &windowEdge{t: fcds.NewWindowedThetaTableU64(
		fcds.ThetaTableU64Config{
			Table: fcds.TableU64Config{Writers: generators, Shards: shards},
			K:     tableK,
		},
		fcds.WindowConfig{Slots: winSlots, Width: time.Hour},
	)}
	for g := range e.w {
		e.w[g] = e.t.Writer(g)
	}
	if reg != nil {
		e.t.RegisterMetrics(reg.r, srvTable)
		fcds.RegisterPoolMetrics(reg.r, e.t.Pool())
	}
	return e
}

func (e *windowEdge) Ingest(g int, keys, vals []uint64) error {
	e.w[g].UpdateKeyedBatch(keys, vals)
	return nil
}
func (e *windowEdge) Barrier() error { e.t.Drain(); return nil }
func (e *windowEdge) IngestAck(g int, keys, vals []uint64) error {
	e.w[g].UpdateKeyedBatch(keys, vals)
	return nil
}
func (e *windowEdge) Query(_ int, key uint64) (float64, bool, error) {
	est, ok := e.t.QueryWindow(key)
	return est, ok, nil
}
func (e *windowEdge) Rollup(int) (float64, error) { return e.t.RollupWindow().Estimate(), nil }
func (e *windowEdge) Rotate()                     { e.t.Rotate() }
func (e *windowEdge) Keys() int                   { return e.t.Keys() }
func (e *windowEdge) Counters() counters {
	var c counters
	readPool(e.t.Pool(), &c)
	return c
}
func (e *windowEdge) Close() error { e.t.Close(); return nil }
func (e *windowEdge) Names() opNames {
	return opNames{"UpdateKeyedBatch", "Drain", "UpdateKeyedBatch", "QueryWindow", "RollupWindow"}
}

// windowStats reads the ring's public rotation counters (ladder only).
func (e *windowEdge) windowStats() (recycles, hintCarries, sealedRebuilds int64) {
	return e.t.Recycles(), e.t.HintCarries(), e.t.SealedRebuilds()
}

// wireEdge: an in-process ingest server over one registered table,
// driven through two loopback client connections.
type wireEdge struct {
	t   *fcds.ThetaTableU64
	srv *fcds.IngestServer
	c   [generators]*fcds.IngestClient
}

func newWireEdge(reg *registry) (*wireEdge, error) {
	e := &wireEdge{t: newThetaTable(generators)}
	srv, err := fcds.Serve("127.0.0.1:0", fcds.IngestServerConfig{})
	if err != nil {
		e.t.Close()
		return nil, err
	}
	e.srv = srv
	if err := fcds.RegisterThetaTableU64(srv, srvTable, e.t); err != nil {
		e.Close()
		return nil, err
	}
	if reg != nil {
		srv.RegisterMetrics(reg.r)
		e.t.RegisterMetrics(reg.r, srvTable)
		fcds.RegisterPoolMetrics(reg.r, e.t.Pool())
	}
	for g := range e.c {
		if e.c[g], err = fcds.Dial(srv.Addr().String()); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

func (e *wireEdge) Ingest(g int, keys, vals []uint64) error {
	return e.c[g].IngestU64(srvTable, keys, vals)
}
func (e *wireEdge) Barrier() error {
	for _, c := range e.c {
		if err := c.Flush(); err != nil {
			return err
		}
	}
	return nil
}
func (e *wireEdge) IngestAck(g int, keys, vals []uint64) error {
	if err := e.c[g].IngestU64(srvTable, keys, vals); err != nil {
		return err
	}
	return e.c[g].Flush()
}

// settle makes every acknowledged item visible to the server's reads.
// Reads over the wire are relaxed: a server-side writer handle may still
// buffer its share of r = 2*N*b items per key until the server quiesces
// and drains the table, which a checkpoint does (a snapshot pull would
// too, but 10 000 keys exceed the client's 16 MiB frame limit). The
// oracle calls it before it reads; nothing timed does.
func (e *wireEdge) settle(dir string) error {
	_, err := e.srv.WriteCheckpoints(dir)
	return err
}

// flush is the Flush half of IngestAck, timed apart by the ladder.
func (e *wireEdge) flush(g int) error { return e.c[g].Flush() }

func (e *wireEdge) Query(g int, key uint64) (float64, bool, error) {
	_, blob, found, err := e.c[g].QueryCompactU64(srvTable, key)
	if err != nil || !found {
		return 0, found, err
	}
	c, err := fcds.UnmarshalThetaCompact(blob)
	if err != nil {
		return 0, true, err
	}
	return c.Estimate(), true, nil
}
func (e *wireEdge) Rollup(g int) (float64, error) {
	r, err := clientRollup(e.c[g], srvTable)
	return r.estimate, err
}
func (e *wireEdge) Rotate()   {}
func (e *wireEdge) Keys() int { return e.t.Keys() }
func (e *wireEdge) Counters() counters {
	c := tableCounters(e.t)
	s := e.srv.Stats()
	c.srvFrames, c.srvItems, c.srvErrors = s.Frames, s.Items, s.Errors
	return c
}
func (e *wireEdge) Close() error {
	var first error
	for _, c := range e.c {
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if e.srv != nil {
		if err := e.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.t.Close()
	return first
}
func (e *wireEdge) Names() opNames {
	return opNames{"IngestU64", "Flush", "IngestU64+Flush", "QueryCompactU64", "Rollup"}
}

// rollupState is a rollup compact reduced to what equality needs.
type rollupState struct {
	estimate float64
	theta    uint64
	retained int
}

func clientRollup(c *fcds.IngestClient, tbl string) (rollupState, error) {
	_, blob, err := c.Rollup(tbl)
	if err != nil {
		return rollupState{}, err
	}
	cp, err := fcds.UnmarshalThetaCompact(blob)
	if err != nil {
		return rollupState{}, err
	}
	return rollupState{cp.Estimate(), cp.Theta(), cp.Retained()}, nil
}

// --- ship: edge snapshots into a journaled aggregator -----------------

// markerKey is the key only source i's snapshot holds, so "source i is
// present on the aggregator" is one per-key query.
func markerKey(i int) uint64 { return 1<<40 + uint64(i) }

// buildBlob ingests (keys, vals) plus the source's marker key into a
// fresh local table and returns its FCTB snapshot.
func buildBlob(source int, keys, vals []uint64, chunk int) ([]byte, error) {
	t := newThetaTable(1)
	defer t.Close()
	w := t.Writer(0)
	for off := 0; off < len(keys); off += chunk {
		end := min(off+chunk, len(keys))
		w.UpdateKeyedBatch(keys[off:end], vals[off:end])
	}
	w.UpdateKeyed(markerKey(source), uint64(source))
	t.Drain()
	return t.SnapshotBinary()
}

// Fixed flush policy of the ship stage (stated in README.md).
const (
	journalFsyncEvery = 8
	journalMaxBytes   = 12 << 20
)

// aggregator is the journaled server the ship stage pushes into.
type aggregator struct {
	t   *fcds.ThetaTableU64
	srv *fcds.IngestServer
	j   *fcds.IngestJournal
	c   [generators]*fcds.IngestClient
	dir string
}

// newAggregatorServer is an idle server with the aggregate table
// registered: the state every boot starts from.
func newAggregatorServer() (*fcds.ThetaTableU64, *fcds.IngestServer, error) {
	t := newThetaTable(generators)
	srv := fcds.NewIngestServer(fcds.IngestServerConfig{})
	if err := fcds.RegisterThetaTableU64(srv, aggTable, t); err != nil {
		t.Close()
		return nil, nil, err
	}
	return t, srv, nil
}

func startAggregator(dir string) (*aggregator, error) {
	t, srv, err := newAggregatorServer()
	if err != nil {
		return nil, err
	}
	a := &aggregator{t: t, srv: srv, dir: dir}
	if a.j, err = fcds.OpenIngestJournal(dir, fcds.IngestJournalConfig{
		FsyncEvery: journalFsyncEvery, MaxBytes: journalMaxBytes,
	}); err != nil {
		t.Close()
		return nil, err
	}
	srv.AttachJournal(a.j)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		a.crash()
		return nil, err
	}
	for g := range a.c {
		if a.c[g], err = fcds.Dial(srv.Addr().String()); err != nil {
			a.crash()
			return nil, err
		}
	}
	return a, nil
}

func (a *aggregator) push(g int, source string, blob []byte) error {
	return a.c[g].PushSnapshotFrom(aggTable, source, blob)
}

func (a *aggregator) checkpoint() (bytes int64, err error) {
	st, err := a.srv.WriteCheckpoints(a.dir)
	return st.Bytes, err
}

func (a *aggregator) rollup() (rollupState, error) { return clientRollup(a.c[0], aggTable) }

func (a *aggregator) journalStats() fcds.IngestJournalStats { return a.j.Stats() }

// crash stops the aggregator without a final checkpoint: what is on
// disk is the last checkpoint plus the journal tail.
func (a *aggregator) crash() error {
	var first error
	for _, c := range a.c {
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if err := a.srv.Close(); err != nil && first == nil {
		first = err
	}
	if err := a.j.Close(); err != nil && first == nil {
		first = err
	}
	a.t.Close()
	return first
}

// recovery is one boot from the aggregator's directory.
type recovery struct {
	restore, replay time.Duration
	restoredBytes   int64
	replayed        int
	rollup          rollupState
	missing         int // acknowledged sources the boot did not bring back
}

// recoverAggregator boots a fresh server from dir (RestoreCheckpoints
// then ReplayJournal, timed), then opens it to read back the rollup
// and every source's marker key (untimed).
func recoverAggregator(dir string, sources int) (recovery, error) {
	var r recovery
	t, srv, err := newAggregatorServer()
	if err != nil {
		return r, err
	}
	defer t.Close()
	defer srv.Close()
	t0 := time.Now()
	cs, err := srv.RestoreCheckpoints(dir)
	if err != nil {
		return r, fmt.Errorf("RestoreCheckpoints: %w", err)
	}
	t1 := time.Now()
	js, err := srv.ReplayJournal(dir)
	if err != nil {
		return r, fmt.Errorf("ReplayJournal: %w", err)
	}
	r.restore, r.replay = t1.Sub(t0), time.Since(t1)
	r.restoredBytes, r.replayed = cs.Bytes, js.Records
	if js.Errors != 0 || js.UnknownTable != 0 {
		return r, fmt.Errorf("ReplayJournal: %d errors, %d unknown-table records", js.Errors, js.UnknownTable)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return r, err
	}
	c, err := fcds.Dial(srv.Addr().String())
	if err != nil {
		return r, err
	}
	defer c.Close()
	if r.rollup, err = clientRollup(c, aggTable); err != nil {
		return r, err
	}
	for i := 0; i < sources; i++ {
		_, _, found, err := c.QueryCompactU64(aggTable, markerKey(i))
		if err != nil {
			return r, err
		}
		if !found {
			r.missing++
		}
	}
	return r, nil
}

// --- ladder rungs below the table --------------------------------------

// hashThetaFiltered runs the fused hash + Θ pre-filter over vs and
// returns how many hashes passed.
func hashThetaFiltered(dst, vs []uint64, hint uint64) int {
	return len(hash.AppendThetaUint64Filtered(dst[:0], vs, hash.DefaultSeed, hint))
}

// hashSum runs the 64-bit key hash over ks.
func hashSum(dst, ks []uint64) int {
	return len(hash.AppendSumUint64(dst[:0], ks, hash.DefaultSeed))
}

const maxTheta = hash.MaxThetaValue

// seqTheta feeds vs one by one into the sequential Θ sketch.
func seqTheta(vs []uint64) float64 {
	s := fcds.NewThetaQuickSelect(sketchK)
	for _, v := range vs {
		s.UpdateUint64(v)
	}
	return s.Estimate()
}

// conc1Theta is the concurrent Θ sketch with one writer; probe, when
// non-nil, is called with the live sketch's wait-free estimate function
// while the writer runs.
func conc1Theta(vs []uint64, chunk int, probe func(estimate func() float64)) float64 {
	c := fcds.NewConcurrentTheta(fcds.ConcurrentThetaConfig{K: sketchK, Writers: 1})
	defer c.Close()
	done := make(chan struct{})
	if probe != nil {
		go func() { defer close(done); probe(c.Estimate) }()
	} else {
		close(done)
	}
	w := c.Writer(0)
	for off := 0; off < len(vs); off += chunk {
		w.UpdateUint64Batch(vs[off:min(off+chunk, len(vs))])
	}
	w.Flush()
	<-done
	return c.Estimate()
}

func seqQuantiles(fs []float64) {
	s := fcds.NewQuantilesSketch(128)
	s.UpdateSlice(fs)
}

func conc1Quantiles(fs []float64, chunk int) {
	c := fcds.NewConcurrentQuantiles(fcds.ConcurrentQuantilesConfig{K: 128, Writers: 1})
	defer c.Close()
	w := c.Writer(0)
	for off := 0; off < len(fs); off += chunk {
		w.UpdateBatch(fs[off:min(off+chunk, len(fs))])
	}
	w.Flush()
}

func conc1HLL(vs []uint64, chunk int) {
	c := fcds.NewConcurrentHLL(fcds.ConcurrentHLLConfig{Writers: 1})
	defer c.Close()
	w := c.Writer(0)
	for off := 0; off < len(vs); off += chunk {
		w.UpdateUint64Batch(vs[off:min(off+chunk, len(vs))])
	}
	w.Flush()
}

// frameReadNs builds n keyed-batch frames of the workload's chunk size
// and returns the time FrameReader.Next takes over all of them.
func frameReadNs(n, chunk int) (time.Duration, error) {
	payload := len(srvTable) + 4 + 16*chunk
	var buf bytes.Buffer
	body := make([]byte, payload)
	for i := 0; i < n; i++ {
		buf.Write(wire.AppendHeader(nil, 1, wire.FrameKeyedBatch, payload))
		buf.Write(body)
	}
	fr := wire.NewFrameReader(bytes.NewReader(buf.Bytes()), 0, 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, _, _, _, err := fr.Next(); err != nil {
			return 0, err
		}
	}
	d := time.Since(t0)
	if _, _, _, _, err := fr.Next(); err != io.EOF {
		return 0, fmt.Errorf("FrameReader: want EOF after %d frames, got %v", n, err)
	}
	return d, nil
}

// journalAppend calls Journal.AppendPush directly, without a server,
// and returns each append's duration.
func journalAppend(dir string, blobs [][]byte, n int) ([]time.Duration, error) {
	j, err := fcds.OpenIngestJournal(dir, fcds.IngestJournalConfig{
		FsyncEvery: journalFsyncEvery, MaxBytes: journalMaxBytes,
	})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	ds := make([]time.Duration, n)
	for i := range ds {
		src := i % len(blobs)
		t0 := time.Now()
		if _, err := j.AppendPush(aggTable, sourceName(src), blobs[src]); err != nil {
			return nil, err
		}
		ds[i] = time.Since(t0)
	}
	return ds, nil
}

func sourceName(i int) string { return fmt.Sprintf("edge-%d", i) }
