package table

import (
	"fmt"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
	"github.com/fcds/fcds/internal/hll"
)

// HLLConfig configures a keyed HLL table: fixed tiny per-key memory
// (2^Precision registers), the right trade when key counts dwarf
// per-key cardinalities. Zero fields take defaults: Precision=10
// (1KB registers, ≈3.2% RSE per key).
type HLLConfig[K Key] struct {
	// Table is the sketch-independent table configuration.
	Table Config[K]
	// Precision is each per-key sketch's p (2^p registers).
	Precision uint8
	// BufferSize is b, each writer slot's local buffer per key; the
	// per-key relaxation is r = 2·N·b. Default 64.
	BufferSize int
	// Seed is the shared hash seed.
	Seed uint64
}

func (c HLLConfig[K]) withDefaults() HLLConfig[K] {
	c.Table = c.Table.withDefaults()
	if c.Precision == 0 {
		c.Precision = 10
	}
	// Validate here, not on first update: the lazy NewSketch call runs
	// under a shard write-lock (see ThetaConfig.withDefaults).
	if !validParam(KindHLL, int(c.Precision)) {
		panic(fmt.Sprintf("table: HLLConfig.Precision must be in [4, 18], got %d", c.Precision))
	}
	if c.BufferSize == 0 {
		c.BufferSize = 64
	}
	if c.Seed == 0 {
		c.Seed = hash.DefaultSeed
	}
	return c
}

// Engine returns the fully defaulted table configuration and the bound
// per-key HLL sketch engine this config describes.
func (c HLLConfig[K]) Engine() (Config[K], *hll.Engine) {
	c = c.withDefaults()
	return c.Table, hll.NewEngine(hll.ConcurrentConfig{
		Precision:  c.Precision,
		Writers:    c.Table.Writers,
		BufferSize: c.BufferSize,
		Seed:       c.Seed,
	})
}

// HLLTable maps keys to concurrent HLL sketches: per-key unique
// counting in fixed tiny memory per key.
type HLLTable[K Key] struct {
	*Table[K, uint64, float64, *hll.Sketch]
}

// HLLTableWriter is a single-goroutine keyed ingestion handle.
type HLLTableWriter[K Key] = StringWriter[K, uint64, float64, *hll.Sketch]

// NewHLL builds a keyed HLL table; Close it when done.
func NewHLL[K Key](cfg HLLConfig[K]) *HLLTable[K] {
	tcfg, eng := cfg.Engine()
	return &HLLTable[K]{New[K](tcfg, core.Engine[uint64, float64, *hll.Sketch](eng))}
}

// Writer returns the i-th writer handle (single-goroutine use).
func (t *HLLTable[K]) Writer(i int) *HLLTableWriter[K] { return &HLLTableWriter[K]{t.Table.Writer(i)} }

// Estimate returns the key's current unique-count estimate. Wait-free;
// false when the key has never been updated (or was evicted).
func (t *HLLTable[K]) Estimate(k K) (float64, bool) { return t.Query(k) }

// UnmarshalHLLSnapshot parses a serialized HLL table snapshot keyed by
// K.
func UnmarshalHLLSnapshot[K Key](data []byte) (*TableSnapshot[K, *hll.Sketch], error) {
	return unmarshalSnapshot[K](data, KindHLL, func(param uint32) core.CompactCodec[*hll.Sketch] {
		return hll.NewEngine(hll.ConcurrentConfig{Precision: uint8(param)})
	})
}
