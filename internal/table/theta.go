package table

import (
	"fmt"
	"math"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
	"github.com/fcds/fcds/internal/theta"
)

// ThetaConfig configures a keyed Θ table. Zero fields take defaults
// tuned for millions of small per-key sketches: K=256, BufferSize=8.
type ThetaConfig[K Key] struct {
	// Table is the sketch-independent table configuration.
	Table Config[K]
	// K is each per-key sketch's nominal entry count (power of two,
	// default 256 — per-key RSE ≈ 1/sqrt(K-2) ≈ 6.3%). Per-key memory
	// grows with K; the table default trades accuracy for footprint
	// against the paper's standalone default of 4096.
	K int
	// MaxError is e, the per-key tolerated relaxation error; it sizes
	// the eager cutoff 2/e² exactly as for a standalone sketch. A key
	// below the cutoff is flat (see the package comment): one array of
	// its distinct item hashes, deduplicated by linear scan, so 2/e² is
	// also the most that array can hold (8 bytes each) and bounds the
	// scan. The default is the per-key sketch's own RSE 1/sqrt(K-2)
	// (6.3% at the default K=256, cutoff 508 updates), never below
	// 0.04: a relaxation-error target tighter than the sketch's
	// inherent error would only lengthen the serialised (mutex-guarded)
	// per-key eager phase, which multi-writer ingest pays for directly.
	// MaxError >= 1 means no eager phase and no flat keys.
	MaxError float64
	// BufferSize is b, each writer slot's local buffer per key; the
	// per-key relaxation is r = 2·N·b. Default 8 (the error-derived
	// size would be 1 at table-scale K, which would hand off on every
	// update; 8 amortises pool scheduling at r = 16·N staleness).
	BufferSize int
	// Seed is the shared hash seed (default hash.DefaultSeed). All
	// tables and snapshots that are merged together must agree on it.
	Seed uint64
}

func (c ThetaConfig[K]) withDefaults() ThetaConfig[K] {
	c.Table = c.Table.withDefaults()
	if c.K == 0 {
		c.K = 256
	}
	// Validate here, not on first update: the lazy NewSketch call runs
	// under a shard write-lock, where a constructor panic would leave
	// the shard locked for any caller that recovers.
	if !validParam(KindTheta, c.K) {
		panic(fmt.Sprintf("table: ThetaConfig.K must be a power of two in [16, 2^26], got %d", c.K))
	}
	if c.MaxError == 0 {
		c.MaxError = 1 / math.Sqrt(float64(c.K-2))
		if c.MaxError < 0.04 {
			c.MaxError = 0.04
		}
	}
	if c.BufferSize == 0 {
		c.BufferSize = 8
	}
	if c.Seed == 0 {
		c.Seed = hash.DefaultSeed
	}
	return c
}

// Engine returns the fully defaulted table configuration and the bound
// per-key Θ sketch engine this config describes. Composites that
// layer on the generic table (the windowed table) start here.
func (c ThetaConfig[K]) Engine() (Config[K], *theta.Engine) {
	c = c.withDefaults()
	return c.Table, theta.NewEngine(theta.ConcurrentConfig{
		K:          c.K,
		Writers:    c.Table.Writers,
		MaxError:   c.MaxError,
		BufferSize: c.BufferSize,
		Seed:       c.Seed,
	})
}

// ThetaTable maps keys to concurrent Θ sketches: per-key unique
// counting (users per tenant, distinct URLs per endpoint, ...) with
// wait-free per-key estimates and one shared propagator pool. The
// lifecycle — rollup, snapshots, eviction, drain — is the embedded
// Table's.
type ThetaTable[K Key] struct {
	*Table[K, uint64, float64, *theta.Compact]
}

// ThetaTableWriter is a single-goroutine keyed ingestion handle.
type ThetaTableWriter[K Key] = StringWriter[K, uint64, float64, *theta.Compact]

// NewTheta builds a keyed Θ table; Close it when done.
func NewTheta[K Key](cfg ThetaConfig[K]) *ThetaTable[K] {
	tcfg, eng := cfg.Engine()
	return &ThetaTable[K]{New[K](tcfg, core.Engine[uint64, float64, *theta.Compact](eng))}
}

// Writer returns the i-th writer handle (single-goroutine use).
func (t *ThetaTable[K]) Writer(i int) *ThetaTableWriter[K] {
	return &ThetaTableWriter[K]{t.Table.Writer(i)}
}

// Estimate returns the key's current unique-count estimate. Wait-free;
// false when the key has never been updated (or was evicted). The
// estimate may miss up to Relaxation() of the key's latest updates.
func (t *ThetaTable[K]) Estimate(k K) (float64, bool) { return t.Query(k) }

// UnmarshalThetaSnapshot parses a serialized Θ table snapshot keyed by
// K (the key type must match the one the snapshot was written with).
func UnmarshalThetaSnapshot[K Key](data []byte) (*TableSnapshot[K, *theta.Compact], error) {
	return unmarshalSnapshot[K](data, KindTheta, func(param uint32) core.CompactCodec[*theta.Compact] {
		return theta.NewEngine(theta.ConcurrentConfig{K: int(param)})
	})
}
