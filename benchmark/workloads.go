package main

import (
	"fmt"
	"math"
)

// generators is the number of load-generating goroutines / connections
// of every workload. It equals the cores of the box the benchmark was
// sized on: sweeping threads or connections on two shared cores
// measures the scheduler, not the program.
const generators = 2

// segments is how many fresh set-ups a run measures over (runWorkload
// says why); setup_s is the median of that many set-ups.
const segments = 3

// A workload is one set of inputs. A run is `segments` segments of
// `passes` rounds each, and every size below but `passes` is per round, so
// sized() scales a run's length and nothing that sets its shape: the same
// -seconds does the same work on every commit.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json

	front     string // "sketch", "table", "window" or "wire": see newEdge
	keys      int    // key space of the zipf(1.2) draw; 1 = unkeyed
	passItems int    // items per generator per pass
	replays   int    // times a pass replays its buffers (values not re-salted when > 1)
	chunk     int    // items per call into the front

	passes        int // rounds per segment at the nominal -seconds (runSeconds)
	rollupsPerGap int // quiesced rollups after each pass

	// serve slice: reads beside writes
	serveChunks int // chunks generator 0 sends, each waiting for its acknowledgement
	queryBurst  int // per-key reads timed together: one in-process read is below the clock's resolution
	// open loop, when ackEveryUs > 0; otherwise closed loop
	ackEveryUs   int  // a chunk is due every ackEveryUs ...
	queryEveryUs int  // ... and a query every queryEveryUs ...
	rollupEvery  int  // ... every rollupEvery-th query slot of the run a rollup instead
	rollupLoaded bool // rollup_p50_ms comes from this slice, not from the quiesced rollups

	// ship slice
	shipSources  int // edge tables, one snapshot blob and source id each
	shipKeys     int // keys per edge table
	shipItems    int // items ingested into each edge table
	ckptRounds   int // times per round: ckptEvery pushes (round-robin over the sources), then WriteCheckpoints
	ckptEvery    int
	shipTail     int // then pushes the last checkpoint does not cover: the journal tail a boot replays
	standbyBoots int // then standbys booting from the live directory, one after the other
	recoveries   int // boots after the final crash
}

// probe is the ship slice of the workloads whose front does not own the
// ship metrics: 2 sources of 2 000 keys.
func probe(w workload) workload {
	w.shipSources, w.shipKeys, w.shipItems = 2, 2000, 1<<16
	w.ckptRounds, w.ckptEvery, w.shipTail, w.standbyBoots, w.recoveries = 4, 8, 2, 3, 5
	return w
}

// workloads in the order they run and print.
var workloads = []workload{
	probe(workload{
		name: "sketch_theta", front: "sketch", keys: 1,
		why:       "one concurrent theta sketch, write-only: >99.9% of items die at hash + pre-filter, so hash/theta do the work",
		passItems: 1 << 23, replays: 8, chunk: 4096,
		passes: 6, rollupsPerGap: 3, serveChunks: 4096, queryBurst: 1024,
	}),
	probe(workload{
		name: "table_hot", front: "table", keys: 1_000,
		why:       "keyed table, 1 000 zipf keys: working set near the 512-slot writer entry cache, hot keys promote",
		passItems: 1 << 22, replays: 1, chunk: 2048,
		passes: 7, rollupsPerGap: 3, serveChunks: 1024, queryBurst: 1024,
	}),
	probe(workload{
		name: "table_wide", front: "table", keys: 100_000,
		why:       "keyed table, 100 000 zipf keys: working set far beyond the entry cache; shard lookups and lazy creation dominate",
		passItems: 1 << 19, replays: 1, chunk: 2048,
		passes: 7, rollupsPerGap: 1, serveChunks: 96, queryBurst: 1024,
	}),
	probe(workload{
		name: "window_hot", front: "window", keys: 1_000,
		why:       "the table_hot stream through a 6-slot epoch ring, 2 rotations per pass: window overhead is one ratio against table_hot",
		passItems: 1 << 22, replays: 1, chunk: 2048,
		passes: 4, rollupsPerGap: 3, serveChunks: 320, queryBurst: 16,
	}),
	probe(workload{
		name: "serve_ingest", front: "wire", keys: 10_000,
		why:       "loopback ingest server, 2 pipelining connections, 10 000 keys: wire, server and client do most of the work",
		passItems: 1 << 20, replays: 1, chunk: 2048,
		passes: 6, rollupsPerGap: 2, serveChunks: 128, queryBurst: 1,
	}),
	probe(workload{
		name: "serve_mixed", front: "wire", keys: 10_000,
		why:       "reads beside writes, open loop: 1.0 Mitems/s of ingest frames while queries and rollups arrive on a schedule",
		passItems: 1 << 19, replays: 1, chunk: 2048,
		passes: 3, rollupsPerGap: 1, serveChunks: 488, queryBurst: 1,
		ackEveryUs: 2048, queryEveryUs: 500, rollupEvery: 1000, rollupLoaded: true,
	}),
	{
		name: "ship_recover", front: "table", keys: 2_000,
		why:       "edge snapshots into a journaled aggregator, checkpoints, crash, boots: journal, checkpoint and merge do the work",
		passItems: 1 << 20, replays: 1, chunk: 2048,
		passes: 5, rollupsPerGap: 3, serveChunks: 320, queryBurst: 1024,
		shipSources: 8, shipKeys: 2000, shipItems: 1 << 17,
		ckptRounds: 6, ckptEvery: 16, shipTail: 5, standbyBoots: 2, recoveries: 5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sized scales the number of rounds from the nominal runSeconds to
// seconds. Three rounds at least: with the warm-up that is one pass more
// than the window holds, so something always expires.
func (w workload) sized(seconds float64) workload {
	w.passes = max(3, int(math.Round(float64(w.passes)*seconds/runSeconds)))
	return w
}

// tiny shrinks w to a size the self-test runs in well under a second,
// keeping every stage and every check.
func (w workload) tiny() workload {
	w.keys = min(w.keys, 500)
	w.passItems = 1 << 13
	w.replays = min(w.replays, 2)
	w.passes = 3
	w.rollupsPerGap = 1
	w.serveChunks = 12
	if w.rollupEvery > 0 {
		w.rollupEvery = 20
	}
	w.shipKeys = 100
	w.shipItems = 1 << 11
	w.ckptRounds = 1
	w.standbyBoots = 1
	w.recoveries = 2
	return w
}

// An end-to-end metric: name, unit, direction and regression bound are
// the contract BENCHMARK.json repeats.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// Bounds: 0.25, the widest the driver's contract allows, on everything
// that is timed, not ISSUE 12's 0.10: ten runs of one commit must spread
// less than a third of a bound, and on the box the sizes were fixed on
// the steadiest timed metric spreads 9% on its worst workload even while
// the machine holds one speed (README.md, Steadiness, has the numbers).
// 0.10 on state_mb, which repeats to 0.3%. ack_p50_us, query_p50_us,
// push_p50_ms and checkpoint_p50_ms could not hold 0.25 on every workload
// and are per-layer metrics, as the issue prescribes (README.md, End-to-end metrics, says
// what each did). compare has no way to judge by other bounds than these.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_mops", "Mitems/s", "higher", 0.25},
	{"state_mb", "MB", "lower", 0.10},
	{"rollup_p50_ms", "ms", "lower", 0.25},
	{"ship_mbps", "MB/s", "higher", 0.25},
	{"recover_ms", "ms", "lower", 0.25},
}

// perLayer lists every per-layer metric a traced run prints, in print
// order. README.md says how each is measured and which end-to-end
// metric it should move.
var perLayer = []metricDef{
	{"ack_p50_us", "us", "lower", 0},
	{"query_p50_us", "us", "lower", 0},
	{"push_p50_ms", "ms", "lower", 0},
	{"checkpoint_p50_ms", "ms", "lower", 0},
	{"hash.theta_ns_per_item", "ns", "lower", 0},
	{"hash.sum_ns_per_item", "ns", "lower", 0},
	{"theta.seq_ns_per_item", "ns", "lower", 0},
	{"theta.conc1_ns_per_item", "ns", "lower", 0},
	{"theta.estimate_ns", "ns", "lower", 0},
	{"theta.est_err_pct", "%", "lower", 0},
	{"quantiles.seq_ns_per_item", "ns", "lower", 0},
	{"quantiles.conc1_ns_per_item", "ns", "lower", 0},
	{"hll.conc1_ns_per_item", "ns", "lower", 0},
	{"core.propagate_ns_per_item", "ns", "lower", 0},
	{"core.pool_runs_per_kitem", "1/kitem", "lower", 0},
	{"core.pool_steals_per_kitem", "1/kitem", "lower", 0},
	{"core.pool_wakes_per_kitem", "1/kitem", "lower", 0},
	{"core.pool_max_depth", "count", "lower", 0},
	{"table.update_ns_per_item", "ns", "lower", 0},
	{"table.drain_ms", "ms", "lower", 0},
	{"table.cache_hit_ratio", "ratio", "higher", 0},
	{"table.shard_lookups_per_kitem", "1/kitem", "lower", 0},
	{"table.promotions", "count", "higher", 0},
	{"table.demotions", "count", "lower", 0},
	{"table.keys", "count", "lower", 0},
	{"table.bytes_per_key", "B", "lower", 0},
	{"table.allocs_per_kitem", "1/kitem", "lower", 0},
	{"table.query_ns", "ns", "lower", 0},
	{"table.rollup_ns_per_key", "ns", "lower", 0},
	{"table.snapshot_ms", "ms", "lower", 0},
	{"table.snapshot_bytes", "B", "lower", 0},
	{"window.update_ns_per_item", "ns", "lower", 0},
	{"window.rotate_p50_ms", "ms", "lower", 0},
	{"window.rotate_max_ms", "ms", "lower", 0},
	{"window.recycles", "count", "higher", 0},
	{"window.hint_carries", "count", "higher", 0},
	{"window.sealed_rebuilds", "count", "lower", 0},
	{"window.overhead_x", "x", "lower", 0},
	{"wire.bytes_per_item", "B", "lower", 0},
	{"wire.read_ns_per_frame", "ns", "lower", 0},
	{"server.wire_vs_direct_x", "x", "higher", 0},
	{"server.writer_pool_waits", "count", "lower", 0},
	{"server.frames", "count", "higher", 0},
	{"server.errors", "count", "lower", 0},
	{"client.ingest_call_ns_per_item", "ns", "lower", 0},
	{"client.flush_wait_share", "ratio", "lower", 0},
	{"client.ack_p99_us", "us", "lower", 0},
	{"client.query_p99_us", "us", "lower", 0},
	{"client.rollup_hi_ms", "ms", "lower", 0},
	{"client.push_p99_ms", "ms", "lower", 0},
	{"client.sched_lag_p99_us", "us", "lower", 0},
	{"journal.append_p50_us", "us", "lower", 0},
	{"journal.fsyncs", "count", "lower", 0},
	{"journal.write_amp", "x", "lower", 0},
	{"journal.compactions", "count", "lower", 0},
	{"journal.replay_ms", "ms", "lower", 0},
	{"journal.replayed_records", "count", "lower", 0},
	{"checkpoint.write_ms", "ms", "lower", 0},
	{"checkpoint.restore_ms", "ms", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"metrics.scrape_ms", "ms", "lower", 0},
	{"metrics.attached_overhead_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.pass_self_pct", "%", "lower", 0},
}
