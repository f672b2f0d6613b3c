package quantiles

import (
	"sync"
	"sync/atomic"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/oracle"
)

// This file instantiates the generic framework with the Quantiles
// sketch. Writer-local sketches are full (small) quantiles sketches, so
// the propagator merges level buffers instead of replaying raw items —
// the mergeability property (§3) doing the heavy lifting. The snapshot
// is an immutable *Snapshot published through an atomic pointer, which
// makes queries a single strongly-linearisable atomic load; the hint is
// unused (calcHint/shouldAdd "may be trivially implemented by always
// returning true", §5.1).

// GlobalSketch is the composable global quantiles sketch.
type GlobalSketch struct {
	q *Sketch
	// mu serialises structural access to q (merge/eager paths vs
	// Compact copies); the wait-free snapshot read never touches it.
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]
}

var _ core.Global[float64, *Snapshot] = (*GlobalSketch)(nil)

// NewGlobal returns an empty composable global sketch with parameter k.
func NewGlobal(k int, orc *oracle.Oracle) *GlobalSketch {
	g := &GlobalSketch{q: NewWithOracle(k, orc)}
	g.publish()
	return g
}

// Merge implements core.Global. Called only by the propagator.
func (g *GlobalSketch) Merge(l core.Local[float64]) {
	g.mu.Lock()
	g.q.Merge(l.(*Sketch))
	g.publish()
	g.mu.Unlock()
}

// UpdateDirect implements core.Global (eager phase).
func (g *GlobalSketch) UpdateDirect(v float64) {
	g.mu.Lock()
	g.q.Update(v)
	g.publish()
	g.mu.Unlock()
}

// Compact returns a sequential copy of the global sketch, serialised
// against concurrent merges. The copy owns its buffers, so it can be
// serialized with MarshalBinary and merged into other sketches.
func (g *GlobalSketch) Compact() *Sketch {
	g.mu.Lock()
	defer g.mu.Unlock()
	cp := New(g.q.K())
	cp.Merge(g.q)
	return cp
}

// Snapshot implements core.Global: a wait-free atomic pointer load of
// an immutable snapshot.
func (g *GlobalSketch) Snapshot() *Snapshot { return g.snap.Load() }

// CalcHint implements core.Global; quantiles derive no useful hint.
func (g *GlobalSketch) CalcHint() uint64 { return 1 }

// ShouldAdd implements core.Global; every update affects a quantiles
// sketch, so nothing is filtered.
func (g *GlobalSketch) ShouldAdd(uint64, float64) bool { return true }

func (g *GlobalSketch) publish() { g.snap.Store(g.q.Snapshot()) }

// ConcurrentConfig configures a concurrent quantiles sketch. Zero
// fields take defaults: K=128, Writers=1, BufferSize=2·K.
type ConcurrentConfig struct {
	// K is the sketch accuracy parameter (power of two).
	K int
	// Writers is N, the number of writer handles.
	Writers int
	// BufferSize is b, the number of updates each writer buffers
	// locally between propagations; the query relaxation is 2·N·b.
	BufferSize int
	// EagerLimit, when > 0, makes the first EagerLimit updates
	// propagate eagerly (sequentially) to keep small-stream error
	// bounded (§5.3); < 0 disables, 0 uses 2·K.
	EagerLimit int
	// Seed seeds the compaction-coin oracle.
	Seed uint64
	// Pool, when non-nil, attaches the sketch to a shared propagation
	// executor instead of a dedicated propagator goroutine.
	Pool *core.PropagatorPool
}

func (c ConcurrentConfig) withDefaults() ConcurrentConfig {
	if c.K == 0 {
		c.K = 128
	}
	com := core.CommonConfig{Writers: c.Writers, EagerLimit: c.EagerLimit, Seed: c.Seed}.
		WithDefaults(2*c.K, 0x5eed)
	c.Writers, c.EagerLimit, c.Seed = com.Writers, com.EagerLimit, com.Seed
	if c.BufferSize == 0 {
		c.BufferSize = 2 * c.K
	}
	return c
}

// Concurrent is the concurrent Quantiles sketch: N writers ingest into
// local sketches that a background propagator merges into the global
// one; queries read an immutable snapshot wait-free.
type Concurrent struct {
	sk     *core.Sketch[float64, *Snapshot]
	global *GlobalSketch
	cfg    ConcurrentConfig
}

// NewConcurrent builds a concurrent quantiles sketch; Close when done.
func NewConcurrent(cfg ConcurrentConfig) *Concurrent {
	cfg = cfg.withDefaults()
	orc := oracle.New(cfg.Seed)
	global := NewGlobal(cfg.K, orc.Fork())
	coreCfg := core.Config{
		Writers:         cfg.Writers,
		BufferSize:      cfg.BufferSize,
		EagerLimit:      cfg.EagerLimit,
		DoubleBuffering: true,
		Pool:            cfg.Pool,
	}
	newLocal := func() core.Local[float64] {
		return NewWithOracle(cfg.K, orc.Fork())
	}
	return &Concurrent{
		sk:     core.New[float64, *Snapshot](global, newLocal, coreCfg),
		global: global,
		cfg:    cfg,
	}
}

// Writer returns the i-th writer handle (single-goroutine use).
func (c *Concurrent) Writer(i int) *ConcurrentWriter {
	return &ConcurrentWriter{w: c.sk.Writer(i)}
}

// Snapshot returns the current queryable snapshot (wait-free). The
// snapshot may miss up to Relaxation() recent updates.
func (c *Concurrent) Snapshot() *Snapshot { return c.sk.Query() }

// Quantile returns the current estimate of the φ-quantile.
func (c *Concurrent) Quantile(phi float64) float64 { return c.Snapshot().Quantile(phi) }

// Rank returns the current normalized-rank estimate of v.
func (c *Concurrent) Rank(v float64) float64 { return c.Snapshot().Rank(v) }

// Compact returns a sequential copy of the sketch that owns its
// buffers: serializable with MarshalBinary and mergeable into other
// quantiles sketches. Not wait-free (it briefly synchronises with the
// propagator); may miss up to Relaxation() recent updates unless
// writers Flush first.
func (c *Concurrent) Compact() *Sketch { return c.global.Compact() }

// Relaxation returns the bound r = 2·N·b on updates a query may miss.
func (c *Concurrent) Relaxation() int { return c.sk.Relaxation() }

// Propagations returns the number of local merges completed.
func (c *Concurrent) Propagations() int64 { return c.sk.Propagations() }

// Eager reports whether the sketch is still in its eager phase.
func (c *Concurrent) Eager() bool { return c.sk.Eager() }

// Close stops the propagator. Flush writers first to drain buffers.
func (c *Concurrent) Close() { c.sk.Close() }

// ConcurrentWriter is a single-goroutine update handle.
type ConcurrentWriter struct {
	w *core.Writer[float64, *Snapshot]
}

// Update processes one stream value.
func (w *ConcurrentWriter) Update(v float64) { w.w.Update(v) }

// UpdateBatch processes a slice of stream values, amortising the
// framework's per-item overhead over the whole slice. Quantiles filter
// nothing (ShouldAdd is constant true), so the batch enters the
// framework pre-filtered by construction.
func (w *ConcurrentWriter) UpdateBatch(vs []float64) { w.w.UpdateBatchPrefiltered(vs) }

// Flush propagates buffered updates and waits for completion.
func (w *ConcurrentWriter) Flush() { w.w.Flush() }
