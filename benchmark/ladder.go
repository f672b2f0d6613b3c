package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The ladder runs the workload's own stream (the first ladderItems of
// each generator's keys, fresh values every pass) through one layer
// boundary after another: hash, sequential sketch, concurrent sketch,
// keyed table, window, wire. A layer's cost is the difference between
// adjacent rungs. It runs in traced runs only.
const (
	ladderItems   = 1 << 18
	ladderMaxPass = 16
)

// ladderMinTime is how long each rung's timed passes run at least (the
// self-test shortens it).
var ladderMinTime = 300 * time.Millisecond

// rungOut is what one table, window or wire rung measured over its
// timed passes.
type rungOut struct {
	items      int
	wall       time.Duration
	inIngest   time.Duration // summed over both generators
	inFinish   time.Duration // wire: time inside Flush, summed over both connections
	inBarrier  time.Duration
	rotates    []time.Duration
	first, end counters
	maxDepth   int // deepest propagator run queue seen while generators ran
	mallocs    uint64
}

func (o rungOut) rate() float64 { return float64(o.items) / o.wall.Seconds() / 1e6 }

// rung drives e like the ingest stage does (same chunking, two
// generators, barrier per pass, the window's two rotations per pass),
// timing every call from outside: one warm-up pass over the workload's
// whole pass (the state the ingest stage starts its timed passes from),
// then timed passes until ladderMinTime has been measured.
func (r *rig) rung(e edge) (rungOut, error) {
	w := r.w
	var out rungOut
	var vals [generators][]uint64
	for g := range vals {
		vals[g] = make([]uint64, w.passItems)
	}
	we, isWire := e.(*wireEdge)
	_, isWindow := e.(*windowEdge)
	var m0, m1 runtime.MemStats
	for pass := 0; pass <= ladderMaxPass && (pass < 3 || out.wall < ladderMinTime); pass++ {
		n := w.passItems
		if pass > 0 {
			n = min(ladderItems, w.passItems)
		}
		for g := range vals {
			fillScrambled(vals[g][:n], r.alloc(n))
		}
		if pass == 1 {
			out.first = e.Counters()
			runtime.ReadMemStats(&m0)
		}
		var mu sync.Mutex
		var firstErr error
		var rot []time.Duration
		var inIngest, inFinish time.Duration
		depth := 0
		timedRotate := func() {
			t := time.Now()
			e.Rotate()
			rot = append(rot, time.Since(t))
		}
		t0 := time.Now()
		if isWindow {
			timedRotate()
		}
		var wg sync.WaitGroup
		for g := 0; g < generators; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var ing, fin time.Duration
				var err error
				keys := r.keys[g][:n]
				for off := 0; off < n && err == nil; off += w.chunk {
					end := min(off+w.chunk, n)
					t := time.Now()
					err = e.Ingest(g, keys[off:end], vals[g][off:end])
					ing += time.Since(t)
					if g == 0 && isWindow && off <= n/2 && n/2 < end {
						timedRotate()
					}
					if g == 1 && off/w.chunk%32 == 0 {
						depth = max(depth, e.Counters().poolDepth)
					}
				}
				if isWire && err == nil {
					t := time.Now()
					err = we.flush(g)
					fin = time.Since(t)
				}
				mu.Lock()
				inIngest, inFinish = inIngest+ing, inFinish+fin
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		tb := time.Now()
		if err := e.Barrier(); err != nil && firstErr == nil {
			firstErr = err
		}
		if firstErr != nil {
			return out, firstErr
		}
		now := time.Now()
		if isWindow {
			// The first read of an epoch rebuilds the sealed aggregate.
			if _, err := e.Rollup(0); err != nil {
				return out, err
			}
		}
		if pass == 0 {
			continue
		}
		out.items += generators * n
		out.wall += now.Sub(t0)
		out.inBarrier += now.Sub(tb)
		out.inIngest += inIngest
		out.inFinish += inFinish
		out.rotates = append(out.rotates, rot...)
		out.maxDepth = max(out.maxDepth, depth)
	}
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.end = e.Counters()
	return out, nil
}

// timeIt returns the median wall time of three runs of fn.
func timeIt(fn func()) time.Duration {
	var ds []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds))
}

func perItem(d time.Duration, items int) float64 { return float64(d) / float64(items) }

// layerMetrics fills res with every per-layer metric: the ladder rungs,
// plus what the traced stages of this run measured.
func (r *rig) layerMetrics(res *result, s summary, journal journalCounts) error {
	w := r.w
	n := min(ladderItems, w.passItems)
	vs := make([]uint64, n)
	fillScrambled(vs, r.alloc(n))
	ks := r.keys[0][:n]
	dst := make([]uint64, 0, n)

	// hash: the fused hash + Θ pre-filter at a hint that passes 0.1% of
	// the items, and the plain 64-bit hash over the key stream.
	res.set("hash.theta_ns_per_item", perItem(timeIt(func() { hashThetaFiltered(dst, vs, maxTheta>>10) }), n))
	res.set("hash.sum_ns_per_item", perItem(timeIt(func() { hashSum(dst, ks) }), n))

	// sequential and one-writer concurrent sketches of each family.
	seq := timeIt(func() { seqTheta(vs) })
	res.set("theta.seq_ns_per_item", perItem(seq, n))
	res.set("theta.conc1_ns_per_item", perItem(timeIt(func() { conc1Theta(vs, w.chunk, nil) }), n))
	var estimateNs float64
	est := conc1Theta(vs, w.chunk, func(estimate func() float64) {
		const calls = 100_000
		t := time.Now()
		for i := 0; i < calls; i++ {
			estimate()
		}
		estimateNs = float64(time.Since(t)) / calls
	})
	res.set("theta.estimate_ns", estimateNs)
	res.set("theta.est_err_pct", 100*math.Abs(est-float64(n))/float64(n))
	fs := make([]float64, n)
	for i, v := range vs {
		fs[i] = float64(v >> 11)
	}
	qseq := timeIt(func() { seqQuantiles(fs) })
	qconc := timeIt(func() { conc1Quantiles(fs, w.chunk) })
	res.set("quantiles.seq_ns_per_item", perItem(qseq, n))
	res.set("quantiles.conc1_ns_per_item", perItem(qconc, n))
	res.set("hll.conc1_ns_per_item", perItem(timeIt(func() { conc1HLL(vs, w.chunk) }), n))
	res.set("core.propagate_ns_per_item", perItem(qconc-qseq, n))

	// keyed table, plain: the direct rung the window and the wire are
	// compared with.
	heap0 := heapLive()
	te := newTableEdge(nil)
	direct, err := r.rung(te)
	if err != nil {
		te.Close()
		return fmt.Errorf("table rung: %w", err)
	}
	heap1 := heapLive()
	kitems := float64(direct.items) / 1000
	hits := float64(direct.end.cacheHits - direct.first.cacheHits)
	lookups := float64(direct.end.shardLookups - direct.first.shardLookups)
	res.set("core.pool_runs_per_kitem", float64(direct.end.poolRuns-direct.first.poolRuns)/kitems)
	res.set("core.pool_steals_per_kitem", float64(direct.end.poolSteals-direct.first.poolSteals)/kitems)
	res.set("core.pool_wakes_per_kitem", float64(direct.end.poolWakes-direct.first.poolWakes)/kitems)
	res.set("core.pool_max_depth", float64(direct.maxDepth))
	res.set("table.update_ns_per_item", perItem(direct.inIngest, direct.items))
	res.set("table.drain_ms", float64(direct.inBarrier)/float64(time.Millisecond))
	res.set("table.cache_hit_ratio", hits/math.Max(hits+lookups, 1))
	res.set("table.shard_lookups_per_kitem", lookups/kitems)
	res.set("table.promotions", float64(direct.end.promotions))
	res.set("table.demotions", float64(direct.end.demotions))
	res.set("table.keys", float64(te.Keys()))
	res.set("table.bytes_per_key", (float64(heap1)-float64(heap0))/float64(max(te.Keys(), 1)))
	res.set("table.allocs_per_kitem", float64(direct.mallocs)/kitems)
	qn := min(len(r.queryKeys), 100_000)
	t0 := time.Now()
	for _, k := range r.queryKeys[:qn] {
		te.Query(0, k)
	}
	res.set("table.query_ns", perItem(time.Since(t0), max(qn, 1)))
	res.set("table.rollup_ns_per_key", perItem(timeIt(func() { te.Rollup(0) }), max(te.Keys(), 1)))
	var snapBytes int
	var snapErr error
	snap := timeIt(func() { snapBytes, snapErr = te.snapshotBytes() })
	te.Close()
	if snapErr != nil {
		return fmt.Errorf("table rung: SnapshotAppend: %w", snapErr)
	}
	res.set("table.snapshot_ms", float64(snap)/float64(time.Millisecond))
	res.set("table.snapshot_bytes", float64(snapBytes))

	// the same table with every subsystem registered in a metrics
	// registry: what attaching observability costs, and one scrape.
	reg := newRegistry()
	te = newTableEdge(reg)
	attached, err := r.rung(te)
	var scrapeErr error
	scrape := timeIt(func() { _, scrapeErr = reg.scrape() })
	te.Close()
	if err != nil || scrapeErr != nil {
		return fmt.Errorf("table rung with registry: %v, scrape: %v", err, scrapeErr)
	}
	res.set("metrics.scrape_ms", float64(scrape)/float64(time.Millisecond))
	res.set("metrics.attached_overhead_pct", 100*(direct.rate()-attached.rate())/direct.rate())

	// window
	wreg := newRegistry()
	we := newWindowEdge(wreg)
	win, err := r.rung(we)
	recycles, carries, rebuilds := we.windowStats()
	we.Close()
	if err != nil {
		return fmt.Errorf("window rung: %w", err)
	}
	rot := toUnit(win.rotates, time.Millisecond)
	res.set("window.update_ns_per_item", perItem(win.inIngest, win.items))
	res.set("window.rotate_p50_ms", median(rot))
	res.set("window.rotate_max_ms", sorted(rot)[len(rot)-1])
	res.set("window.recycles", float64(recycles))
	res.set("window.hint_carries", float64(carries))
	res.set("window.sealed_rebuilds", float64(rebuilds))
	res.set("window.overhead_x", direct.rate()/win.rate())

	// wire: the identical stream and chunking over two loopback
	// connections into a twin table.
	sreg := newRegistry()
	se, err := newWireEdge(sreg)
	if err != nil {
		return fmt.Errorf("wire rung: %w", err)
	}
	wr, err := r.rung(se)
	if err != nil {
		se.Close()
		return fmt.Errorf("wire rung: %w", err)
	}
	wireBytes := sreg.sum("fcds_server_table_bytes_total")
	waits := sreg.sum("fcds_server_writer_pool_waits_total")
	if err := se.Close(); err != nil {
		return fmt.Errorf("wire rung: close: %w", err)
	}
	res.set("wire.bytes_per_item", wireBytes/math.Max(float64(wr.end.srvItems), 1))
	frames := 1000
	fd, err := frameReadNs(frames, w.chunk)
	if err != nil {
		return fmt.Errorf("wire rung: %w", err)
	}
	res.set("wire.read_ns_per_frame", perItem(fd, frames))
	res.set("server.wire_vs_direct_x", wr.rate()/direct.rate())
	res.set("server.writer_pool_waits", waits)
	res.set("server.frames", float64(wr.end.srvFrames))
	res.set("server.errors", float64(wr.end.srvErrors))
	res.set("client.ingest_call_ns_per_item", perItem(wr.inIngest, wr.items))
	res.set("client.flush_wait_share", float64(wr.inFinish)/math.Max(float64(wr.inIngest+wr.inFinish), 1))

	// journal: AppendPush called directly with the ship blobs.
	jdir := filepath.Join(r.cfg.workDir, fmt.Sprintf("journal-%d", os.Getpid()))
	appends, err := journalAppend(jdir, r.blobs, 64)
	os.RemoveAll(jdir)
	if err != nil {
		return fmt.Errorf("journal rung: %w", err)
	}
	res.set("journal.append_p50_us", median(toUnit(appends, time.Microsecond)))

	// what the traced rounds of this run measured.
	res.set("ack_p50_us", midmean(s.ack.rounds))
	res.set("query_p50_us", midmean(s.query.rounds))
	res.set("push_p50_ms", midmean(s.push.rounds))
	res.set("checkpoint_p50_ms", midmean(s.ckpt.rounds))
	p99 := func(xs []float64) float64 { return percentile(sorted(xs), 99) }
	res.set("client.ack_p99_us", p99(s.ack.all))
	res.set("client.query_p99_us", p99(s.query.all))
	rollups := s.loaded.all
	if len(rollups) == 0 {
		rollups = s.rollup.all
	}
	hiP, hiV := hiPercentile(rollups)
	res.set("client.rollup_hi_ms", hiV)
	res.set("client.push_p99_ms", p99(s.push.all))
	if len(s.lagUs) > 0 { // open loop only
		res.set("client.sched_lag_p99_us", p99(s.lagUs))
	} else {
		res.set("client.sched_lag_p99_us", 0)
	}
	res.set("journal.fsyncs", float64(journal.fsyncs))
	firstPushes := 0
	for _, b := range r.blobs {
		firstPushes += len(b)
	}
	res.set("journal.write_amp", float64(journal.bytes)/float64(s.pushBytes+int64(firstPushes)))
	res.set("journal.compactions", float64(journal.compactions))
	res.set("journal.replay_ms", median(s.replayMs))
	res.set("journal.replayed_records", float64(s.replayed))
	res.set("checkpoint.write_ms", median(s.ckpt.all))
	res.set("checkpoint.restore_ms", median(s.restoreMs))
	res.set("checkpoint.bytes", float64(s.ckptBytes))

	// tracing itself: spans were recorded on odd rounds only.
	var on, off []float64
	for i, rate := range s.passRates {
		if (i+1)%2 == 1 {
			on = append(on, rate)
		} else {
			off = append(off, rate)
		}
	}
	res.set("trace.overhead_pct", 100*(median(off)-median(on))/median(off))
	res.set("trace.pass_self_pct", 100*selfShare(r.tr.spans(), "generate"))

	res.notef("ladder: %d items per generator per timed pass; rates Mitems/s: table %.2f, table+registry %.2f, window %.2f, wire %.2f",
		n, direct.rate(), attached.rate(), win.rate(), wr.rate())
	res.notef("client.rollup_hi_ms is p%g of %d rollups; p99 tails: %d acks, %d query bursts, %d pushes", hiP, len(rollups), len(s.ack.all), len(s.query.all), len(s.push.all))
	return nil
}
