package server

import (
	"sync/atomic"
	"time"

	"github.com/fcds/fcds/internal/metrics"
)

// checkpointDurationBounds bucket a full checkpoint pass — disk fsyncs
// included, so the scale runs coarser than the in-memory read-path
// bounds in internal/table.
var checkpointDurationBounds = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// RegisterMetrics exports the server's operational counters into reg
// and attaches the registry so tables registered (and snapshot sources
// first seen) afterwards export their series too. Every series is
// func-backed and read from the server's existing atomics at scrape
// time; the connection frame loop pays nothing beyond its own counter
// bumps. Call it once per registry — typically right after New.
//
// Global families: fcds_server_tables, fcds_server_live_keys,
// fcds_server_connections_open, fcds_server_connections_total,
// fcds_server_frames_total, fcds_server_items_total,
// fcds_server_snapshots_total, fcds_server_errors_total, plus the
// checkpoint group (fcds_server_has_checkpoint,
// fcds_server_checkpoint_age_seconds, fcds_server_checkpoints_total,
// fcds_server_checkpoint_duration_seconds — a histogram replacing the
// old fcds_server_checkpoint_write_seconds last-pass gauge). Per table
// (label "table"):
// fcds_server_table_keys, fcds_server_table_frames_total,
// fcds_server_table_items_total, fcds_server_table_bytes_total,
// fcds_server_table_errors_total, fcds_server_writer_pool_waits_total,
// fcds_server_writer_pool_idle.
// Per accepted named push (labels "table", "source"):
// fcds_server_snapshot_push_age_seconds.
func (s *Server) RegisterMetrics(reg *metrics.Registry) {
	s.metricsMu.Lock()
	s.metricsReg = reg
	pushes := make(map[pushKey]*atomic.Int64, len(s.pushTimes))
	for k, cell := range s.pushTimes {
		pushes[k] = cell
	}
	s.metricsMu.Unlock()

	reg.GaugeFunc("fcds_server_tables",
		"Registered tables.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.tables))
		})
	reg.GaugeFunc("fcds_server_live_keys",
		"Live keys summed over every registered table.",
		func() float64 { return float64(s.Stats().Keys) })
	reg.GaugeFunc("fcds_server_connections_open",
		"Currently open client connections.",
		func() float64 { return float64(s.connsOpen.Load()) })
	reg.CounterFunc("fcds_server_connections_total",
		"Client connections ever accepted.",
		func() float64 { return float64(s.connsSeen.Load()) })
	reg.CounterFunc("fcds_server_frames_total",
		"Request frames processed (all tables and table-less frames).",
		func() float64 { return float64(s.frames.Load()) })
	reg.CounterFunc("fcds_server_items_total",
		"Keyed updates ingested.",
		func() float64 { return float64(s.items.Load()) })
	reg.CounterFunc("fcds_server_snapshots_total",
		"Remote snapshots merged (stale window re-ships excluded).",
		func() float64 { return float64(s.snapshots.Load()) })
	reg.CounterFunc("fcds_server_errors_total",
		"Error frames returned.",
		func() float64 { return float64(s.errs.Load()) })

	reg.GaugeFunc("fcds_server_has_checkpoint",
		"1 when the server has ever written or restored a durability checkpoint, else 0.",
		func() float64 {
			if _, ok := s.CheckpointAge(); ok {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("fcds_server_checkpoint_age_seconds",
		"Seconds since the newest checkpoint was written or restored; 0 until the first one (check fcds_server_has_checkpoint). Alert when this grows past the checkpoint interval: it bounds aggregator state a crash would lose.",
		func() float64 {
			age, ok := s.CheckpointAge()
			if !ok {
				return 0
			}
			return age.Seconds()
		})
	reg.CounterFunc("fcds_server_checkpoints_total",
		"Completed checkpoint write passes.",
		func() float64 { return float64(s.checkpoints.Load()) })
	s.ckptHist.Store(reg.Histogram("fcds_server_checkpoint_duration_seconds",
		"Wall time of checkpoint write passes (all tables, concurrent). Alert when p99 approaches the checkpoint interval: passes start overlapping and the durability window stops shrinking.",
		checkpointDurationBounds))

	// Journal families: all read through s.Journal() at scrape time, so
	// they report 0 until AttachJournal and pick the journal up without
	// re-registration. jstats flattens the nil check.
	jstats := func() JournalStats {
		if j := s.Journal(); j != nil {
			return j.Stats()
		}
		return JournalStats{}
	}
	reg.GaugeFunc("fcds_server_has_journal",
		"1 when a durability journal is attached, else 0.",
		func() float64 {
			if s.Journal() != nil {
				return 1
			}
			return 0
		})
	reg.CounterFunc("fcds_server_journal_records_total",
		"Records appended to the durability journal (pushes, window ships, eviction spills).",
		func() float64 { return float64(jstats().Records) })
	reg.CounterFunc("fcds_server_journal_bytes_total",
		"Framed bytes appended to the durability journal.",
		func() float64 { return float64(jstats().Bytes) })
	reg.GaugeFunc("fcds_server_journal_size_bytes",
		"Bytes currently on disk across all journal files. Grows between checkpoints, shrinks on rotation pruning and self-compaction; unbounded growth means checkpoints are failing.",
		func() float64 { return float64(jstats().TotalBytes) })
	reg.CounterFunc("fcds_server_journal_rotations_total",
		"Journal file rotations (one per checkpoint pass).",
		func() float64 { return float64(jstats().Rotations) })
	reg.CounterFunc("fcds_server_journal_compactions_total",
		"Size-triggered journal self-compactions (latest record per source kept, merge records carried).",
		func() float64 { return float64(jstats().Compactions) })
	reg.CounterFunc("fcds_server_journal_fsyncs_total",
		"Journal fsync calls (every -journal-fsync-every records).",
		func() float64 { return float64(jstats().Fsyncs) })
	reg.CounterFunc("fcds_server_journal_pruned_files_total",
		"Journal files deleted by post-checkpoint retention.",
		func() float64 { return float64(jstats().Pruned) })
	reg.GaugeFunc("fcds_server_journal_unsynced_records",
		"Acknowledged journal records not yet fsynced — the crash-loss window. Alert when this sits at -journal-fsync-every minus 1 under steady traffic: every crash then loses the maximum the setting allows.",
		func() float64 { return float64(jstats().Unsynced) })
	reg.GaugeFunc("fcds_server_journal_replayed_records",
		"Records the last boot replayed from the journal on top of restored checkpoints (0 after a clean start).",
		func() float64 { return float64(s.replayRecords.Load()) })
	reg.GaugeFunc("fcds_server_journal_replay_age_seconds",
		"Age of the newest record the last boot replayed; 0 when nothing replayed. Persistently large values mean the journal carried old un-checkpointed state — check that checkpoints run.",
		func() float64 {
			_, age, ok := s.JournalReplay()
			if !ok {
				return 0
			}
			return age.Seconds()
		})

	s.mu.Lock()
	type reginfo struct {
		name string
		b    backend
		tc   *tableCounters
	}
	infos := make([]reginfo, 0, len(s.tables))
	for name, b := range s.tables {
		infos = append(infos, reginfo{name, b, s.tstats[name]})
	}
	s.mu.Unlock()
	for _, ri := range infos {
		s.registerTableMetrics(reg, ri.name, ri.b, ri.tc)
	}
	for k, cell := range pushes {
		registerPushLag(reg, k, cell)
	}
}

// registerTableMetrics exports one registered table's server-side
// series; called from register (registry already attached) or
// RegisterMetrics (tables registered first).
func (s *Server) registerTableMetrics(reg *metrics.Registry, name string, b backend, tc *tableCounters) {
	reg.GaugeFunc("fcds_server_table_keys",
		"Live keys per registered table.",
		func() float64 { return float64(b.liveKeys()) }, "table", name)
	reg.CounterFunc("fcds_server_table_frames_total",
		"Request frames resolved to this table.",
		func() float64 { return float64(tc.frames.Load()) }, "table", name)
	reg.CounterFunc("fcds_server_table_items_total",
		"Keyed updates ingested into this table.",
		func() float64 { return float64(tc.items.Load()) }, "table", name)
	reg.CounterFunc("fcds_server_table_bytes_total",
		"Request payload bytes of frames resolved to this table.",
		func() float64 { return float64(tc.bytes.Load()) }, "table", name)
	reg.CounterFunc("fcds_server_table_errors_total",
		"Error frames returned for requests resolved to this table.",
		func() float64 { return float64(tc.errs.Load()) }, "table", name)
	reg.CounterFunc("fcds_server_writer_pool_waits_total",
		"Ingest frames that found every writer handle checked out and had to wait (more concurrent ingest than the table has writers — raise Writers).",
		func() float64 { return float64(b.poolWaits()) }, "table", name)
	reg.GaugeFunc("fcds_server_writer_pool_idle",
		"Writer handles currently checked in (idle) in the table's ingest pool.",
		func() float64 { return float64(b.poolIdle()) }, "table", name)
}

// registerPushLag exports one (table, source) pair's push-lag gauge:
// seconds since that source's last accepted snapshot push. An edge that
// stops shipping shows up as this gauge climbing while its last
// snapshot is still counted in rollups.
func registerPushLag(reg *metrics.Registry, k pushKey, last *atomic.Int64) {
	reg.GaugeFunc("fcds_server_snapshot_push_age_seconds",
		"Seconds since the named source's last accepted snapshot push to this table.",
		func() float64 {
			return time.Duration(time.Now().UnixNano() - last.Load()).Seconds()
		}, "table", k.table, "source", k.source)
}
