package table

import (
	"sync/atomic"
	"time"

	"github.com/fcds/fcds/internal/metrics"
)

// readDurationBounds bucket the rollup/snapshot duration histograms:
// sub-millisecond captures up through the multi-second scans a
// millions-of-keys table produces.
var readDurationBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// observeDur records a read-path duration into the histogram slot, if
// metrics were registered; reads on unregistered tables observe
// nothing.
func (t *Table[K, V, S, C]) observeDur(p *atomic.Pointer[metrics.Histogram], start time.Time) {
	if h := p.Load(); h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// RegisterMetrics exports the table's operational counters into reg,
// labeled with the given table name. Every series is func-backed and
// read from the table's existing atomics at scrape time, so the keyed
// ingestion hot paths keep their zero-allocation budgets; the two
// duration histograms are fed from the read paths (rollup/snapshot),
// never from ingestion.
//
// Families: fcds_table_keys, fcds_table_evictions_total{cause},
// fcds_table_writer_cache_hits_total, fcds_table_shard_lookups_total,
// fcds_table_prefiltered_items_total,
// fcds_table_rollup_duration_seconds,
// fcds_table_snapshot_duration_seconds.
func (t *Table[K, V, S, C]) RegisterMetrics(reg *metrics.Registry, name string) {
	reg.GaugeFunc("fcds_table_keys",
		"Live keys per table.",
		func() float64 { return float64(t.Keys()) }, "table", name)
	reg.CounterFunc("fcds_table_evictions_total",
		"Keys evicted, by cause (cap = size-cap LRU, ttl = idle expiry).",
		func() float64 { return float64(t.evictCap.Load()) }, "table", name, "cause", "cap")
	reg.CounterFunc("fcds_table_evictions_total",
		"Keys evicted, by cause (cap = size-cap LRU, ttl = idle expiry).",
		func() float64 { return float64(t.evictTTL.Load()) }, "table", name, "cause", "ttl")
	reg.CounterFunc("fcds_table_writer_cache_hits_total",
		"Key resolutions served by writer entry caches.",
		func() float64 { return float64(t.Stats().CacheHits) }, "table", name)
	reg.CounterFunc("fcds_table_shard_lookups_total",
		"Key resolutions that missed the writer cache and went through a shard map.",
		func() float64 { return float64(t.Stats().ShardLookups) }, "table", name)
	reg.CounterFunc("fcds_table_prefiltered_items_total",
		"Items a table writer dropped against its key's cached filter hint before grouping them (summed from per-writer cells).",
		func() float64 { return float64(t.Stats().Prefiltered) }, "table", name)
	t.rollupHist.Store(reg.Histogram("fcds_table_rollup_duration_seconds",
		"Wall time of whole-table rollups (collect, fan-out compaction, pairwise merge).",
		readDurationBounds, "table", name))
	t.snapHist.Store(reg.Histogram("fcds_table_snapshot_duration_seconds",
		"Wall time of whole-table snapshot captures, including streaming serialization (SnapshotAppend).",
		readDurationBounds, "table", name))
}
