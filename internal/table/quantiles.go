package table

import (
	"fmt"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/quantiles"
)

// QuantilesConfig configures a keyed quantiles table (per-key latency
// percentiles and the like). Zero fields take table-scale defaults:
// K=32 (≈3.5% rank error at a fraction of the standalone K=128
// footprint — every writer slot of every key buffers 2·K samples).
type QuantilesConfig[K Key] struct {
	// Table is the sketch-independent table configuration.
	Table Config[K]
	// K is each per-key sketch's accuracy parameter (power of two).
	K int
	// BufferSize is b, each writer slot's local buffer per key; the
	// per-key relaxation is r = 2·N·b. Default 2·K. It is the one knob
	// for hot keys: a quantiles sketch has no writer-side filter, so a
	// hot key's throughput is bounded by its handoffs, one per b items.
	// On BenchmarkFamilyHotKeys (1 000 zipf keys, 2 writers, 2 vCPUs)
	// 4·K ingests 3.3 Mitems/s against 1.9 at the default, at twice the
	// r.
	BufferSize int
	// Seed seeds the compaction-coin oracles.
	Seed uint64
}

func (c QuantilesConfig[K]) withDefaults() QuantilesConfig[K] {
	c.Table = c.Table.withDefaults()
	if c.K == 0 {
		c.K = 32
	}
	// Validate here, not on first update: the lazy NewSketch call runs
	// under a shard write-lock (see ThetaConfig.withDefaults).
	if !validParam(KindQuantiles, c.K) {
		panic(fmt.Sprintf("table: QuantilesConfig.K must be a power of two in [2, 2^15], got %d", c.K))
	}
	if c.BufferSize == 0 {
		c.BufferSize = 2 * c.K
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	return c
}

// Engine returns the fully defaulted table configuration and the bound
// per-key quantiles sketch engine this config describes.
func (c QuantilesConfig[K]) Engine() (Config[K], *quantiles.Engine) {
	c = c.withDefaults()
	return c.Table, quantiles.NewEngine(quantiles.ConcurrentConfig{
		K:          c.K,
		Writers:    c.Table.Writers,
		BufferSize: c.BufferSize,
		Seed:       c.Seed,
	})
}

// QuantilesTable maps keys to concurrent quantiles sketches: per-key
// distributions (latency per endpoint, payload size per tenant, ...)
// with wait-free per-key snapshots and one shared propagator pool.
type QuantilesTable[K Key] struct {
	*Table[K, float64, *quantiles.Snapshot, *quantiles.Sketch]
}

// QuantilesTableWriter is a single-goroutine keyed ingestion handle:
// the Table's own Writer.
type QuantilesTableWriter[K Key] = Writer[K, float64, *quantiles.Snapshot, *quantiles.Sketch]

// NewQuantiles builds a keyed quantiles table; Close it when done.
func NewQuantiles[K Key](cfg QuantilesConfig[K]) *QuantilesTable[K] {
	tcfg, eng := cfg.Engine()
	return &QuantilesTable[K]{New[K](tcfg, core.Engine[float64, *quantiles.Snapshot, *quantiles.Sketch](eng))}
}

// SnapshotKey returns the key's current queryable snapshot. Wait-free;
// false when the key has never been updated (or was evicted).
func (t *QuantilesTable[K]) SnapshotKey(k K) (*quantiles.Snapshot, bool) { return t.Query(k) }

// Quantile returns the key's current φ-quantile estimate; false when
// the key is not live.
func (t *QuantilesTable[K]) Quantile(k K, phi float64) (float64, bool) {
	s, ok := t.Query(k)
	if !ok || s.IsEmpty() {
		return 0, false
	}
	return s.Quantile(phi), true
}

// UnmarshalQuantilesSnapshot parses a serialized quantiles table
// snapshot keyed by K.
func UnmarshalQuantilesSnapshot[K Key](data []byte) (*TableSnapshot[K, *quantiles.Sketch], error) {
	return unmarshalSnapshot[K](data, KindQuantiles, func(param uint32) core.CompactCodec[*quantiles.Sketch] {
		return quantiles.NewEngine(quantiles.ConcurrentConfig{K: int(param)})
	})
}
