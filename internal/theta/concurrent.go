package theta

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
)

// This file instantiates the paper's generic framework (package core)
// with the Θ sketch: the "Composable Θ sketch" of Algorithm 1's last
// three functions. The update type U is the Θ-space hash (writers hash
// each item exactly once), the snapshot type S is the estimate, the
// hint is Θ itself, and shouldAdd(h, a) is the hash-vs-Θ comparison —
// safe because Θ only decreases, so a filtered hash can never re-enter
// the sample set (§5.1).

// Buffer is the writer-local sketch: a plain slice of pre-filtered
// Θ-space hashes (the Java implementation's ConcurrentHeapThetaBuffer
// plays the same role). It implements core.Local[uint64].
type Buffer struct {
	hashes []uint64
}

// NewBuffer returns a buffer with the given capacity hint.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{hashes: make([]uint64, 0, capacity)}
}

// Update implements core.Local.
func (b *Buffer) Update(h uint64) { b.hashes = append(b.hashes, h) }

// UpdateSlice implements core.BatchLocal: a run of pre-filtered hashes
// lands in the buffer with a single bulk append.
func (b *Buffer) UpdateSlice(hs []uint64) { b.hashes = append(b.hashes, hs...) }

// Reset implements core.Local.
func (b *Buffer) Reset() { b.hashes = b.hashes[:0] }

// Len returns the number of buffered hashes.
func (b *Buffer) Len() int { return len(b.hashes) }

// updatable is the slice of the Θ sketch API the composable global
// needs; both KMV (Algorithm 1) and QuickSelect satisfy it.
type updatable interface {
	UpdateHash(h uint64)
	Estimate() float64
	Theta() uint64
	Compact() *Compact
	appendBelow(dst []uint64, lim uint64) []uint64
}

// GlobalSketch is the composable global Θ sketch: a sequential sketch
// whose estimate is published through an atomic word after every merge,
// making snapshot() a single strongly-linearisable atomic read exactly
// as in the paper ("our Θ sketch simply accesses an atomic variable
// that holds the query result", §5.1). The underlying sketch is the
// QuickSelect family by default (what the paper's evaluation and the
// DataSketches integration use) or the literal Algorithm 1 KMV.
type GlobalSketch struct {
	qs updatable
	// mu serialises structural access to qs: the merge/eager paths
	// (already one goroutine at a time by the framework contract)
	// against Compact snapshots taken by arbitrary goroutines. Merges
	// are amortised over whole buffers, so the lock is uncontended in
	// steady state; the wait-free query path never touches it.
	mu sync.Mutex
	// est holds math.Float64bits of the current estimate.
	est atomic.Uint64
	// theta is Θ republished at every merge/eager update: the fresh
	// pre-filtering hint the batch paths read once per batch (0 means
	// "not yet published" and maps to MaxThetaValue).
	theta atomic.Uint64
	// noFilter disables hint-based pre-filtering (ablation only: it
	// forces every hash through the local buffers, §5.2 measures the
	// filtering as "instrumental for performance").
	noFilter bool
	// b is the capacity of the locals NewLocal makes (BufferSize); 32
	// bits, beside noFilter, keep the struct in 64 B.
	b int32
	// low is the minimum of every hash ever offered to qs (by Merge,
	// UpdateDirect and AbsorbCompact), so it is never above the smallest
	// retained sample, and it only falls. Guarded by mu. appendTo reads
	// it to leave a sample set it cannot copy from unscanned.
	low uint64
	// floor, when non-nil, is the cell of the table shard that holds the
	// sketch (see core.FloorSketch), kept at or below min(low, Θ): every
	// path that lowers low lowers it, under mu and before publish. Θ
	// needs no path of its own: below 1 it has retained samples below
	// it, so it is above low — except after AbsorbCompact of a compact
	// with no samples, which lowers the cell to Θ itself.
	floor *atomic.Uint64
}

var (
	_ core.FamilyGlobal[uint64, float64, *Compact] = (*GlobalSketch)(nil)
	_ core.FloorSketch                             = (*GlobalSketch)(nil)
)

// NewGlobal returns an empty composable global sketch with nominal
// entry count k, backed by a QuickSelect sketch.
func NewGlobal(k int, seed uint64) *GlobalSketch {
	return &GlobalSketch{qs: NewQuickSelectSeeded(k, seed), low: math.MaxUint64}
}

// NewGlobalKMV returns an empty composable global sketch backed by the
// paper's Algorithm 1 KMV sketch (its last three procedures are
// exactly this type's Snapshot/CalcHint/ShouldAdd).
func NewGlobalKMV(k int, seed uint64) *GlobalSketch {
	return &GlobalSketch{qs: NewKMVSeeded(k, seed), low: math.MaxUint64}
}

// Merge implements core.Global: folds a writer buffer into the sketch
// and republishes the estimate. Called only by the propagator.
func (g *GlobalSketch) Merge(l core.Local[uint64]) {
	buf := l.(*Buffer)
	g.mu.Lock()
	low := g.low
	for _, h := range buf.hashes {
		g.qs.UpdateHash(h)
		low = min(low, h)
	}
	if low < g.low {
		g.low = low
		g.lowerFloor()
	}
	g.publish()
	g.mu.Unlock()
}

// UpdateDirect implements core.Global (eager phase).
func (g *GlobalSketch) UpdateDirect(h uint64) {
	g.mu.Lock()
	g.qs.UpdateHash(h)
	if h < g.low {
		g.low = h
		g.lowerFloor()
	}
	g.publish()
	g.mu.Unlock()
}

// AbsorbCompact preloads the global with a compact's sample set and Θ
// (see QuickSelect.AbsorbCompact). Intended for sketch construction,
// before any writer or propagator runs; the lock still guards against
// misuse. Backends without Θ-absorption (KMV) replay the hashes only.
func (g *GlobalSketch) AbsorbCompact(c *Compact) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var err error
	if ab, ok := g.qs.(interface{ AbsorbCompact(*Compact) error }); ok {
		err = ab.AbsorbCompact(c)
	} else {
		forEachHashUnordered(c, g.qs.UpdateHash)
	}
	forEachHashUnordered(c, func(h uint64) { g.low = min(g.low, h) })
	g.lowerFloor()
	g.publish()
	return err
}

// NewLocal implements core.FamilyGlobal: a Buffer.
func (g *GlobalSketch) NewLocal() core.Local[uint64] { return NewBuffer(int(g.b)) }

// SetFloor implements core.FloorSketch (see setFloor).
func (g *GlobalSketch) SetFloor(cell *atomic.Uint64) { g.setFloor(cell) }

// setFloor hands the sketch its shard's cell and lowers the cell to the
// sketch's floor, min(low, Θ).
func (g *GlobalSketch) setFloor(cell *atomic.Uint64) {
	g.mu.Lock()
	g.floor = cell
	g.lowerFloor()
	g.mu.Unlock()
}

// lowerFloor lowers the shard's cell, if there is one, to min(low, Θ):
// never above a retained sample, nor above the Θ a union would fold in.
// The caller holds mu.
func (g *GlobalSketch) lowerFloor() {
	if g.floor != nil {
		core.LowerCell(g.floor, min(g.low, g.qs.Theta()))
	}
}

// Compact returns an immutable point-in-time snapshot of the full
// sample set, serialised against concurrent merges. Unlike Snapshot
// (the wait-free estimate read) it retains the hashes, so it can be
// serialized, merged and persisted. The propagator waits only for the
// copy: the samples leave unsorted, and whoever first needs them in
// order sorts them outside this lock (see Compact).
func (g *GlobalSketch) Compact() *Compact {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.qs.Compact()
}

// appendTo appends to dst, under the same lock as Compact, the samples
// union u can still take: those below u's bound for the sketch's Θ (see
// Union.bound). The propagator waits only for that copy; u inserts them
// after the lock is released. When low is at or above the bound, no
// retained sample is below it, and the sample set is not scanned at all.
func (g *GlobalSketch) appendTo(dst []uint64, u *Union) []uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	lim := u.bound(g.qs.Theta())
	if g.low >= lim {
		return dst
	}
	return g.qs.appendBelow(dst, lim)
}

// Snapshot implements core.Global: the wait-free query read.
func (g *GlobalSketch) Snapshot() float64 {
	return math.Float64frombits(g.est.Load())
}

// CalcHint implements core.Global: the hint is Θ (Algorithm 1 line 24).
func (g *GlobalSketch) CalcHint() uint64 { return g.qs.Theta() }

// ShouldAdd implements core.Global (Algorithm 1 line 26): only hashes
// below the hinted Θ can affect the sketch.
func (g *GlobalSketch) ShouldAdd(hint uint64, h uint64) bool {
	return g.noFilter || h < hint
}

func (g *GlobalSketch) publish() {
	g.est.Store(math.Float64bits(g.qs.Estimate()))
	g.theta.Store(g.qs.Theta())
}

// PublishedTheta returns the last published Θ — the freshest valid
// pre-filtering hint — falling back to MaxThetaValue before the first
// publication.
func (g *GlobalSketch) PublishedTheta() uint64 {
	if t := g.theta.Load(); t != 0 {
		return t
	}
	return hash.MaxThetaValue
}

// FilterHint implements core.FamilyGlobal (Algorithm 1 line 24 for a
// composite's writer): the published Θ. None in exact mode (every hash
// would pass) or with filtering disabled. Θ only falls, so the hint
// stays a valid static shouldAdd threshold until a Reset (see
// core.FilterEngine).
func (g *GlobalSketch) FilterHint() (uint64, bool) {
	if g.noFilter {
		return 0, false
	}
	t := g.PublishedTheta()
	return t, t < hash.MaxThetaValue
}

// filterHint returns the Θ a batch is pre-filtered against, given the
// writer's piggybacked hint. That hint refreshes only on the writer's
// own handoffs, so with N writers it lags the stream N× further than
// the published Θ: a batch filtered with it admits items a fresh Θ
// already excludes. One atomic load per batch, not per item, keeps the
// paper's cache-friendly design; Θ only falls, so the fresher hint
// filters strictly more and stays a valid static shouldAdd threshold.
// Filtering against a hint a mid-batch handoff has since tightened is
// safe: Merge drops hashes >= Θ.
func (g *GlobalSketch) filterHint(hint uint64) uint64 {
	if g.noFilter {
		return hash.MaxThetaValue
	}
	return min(hint, g.PublishedTheta())
}

// ConcurrentConfig configures a concurrent Θ sketch. Zero fields take
// the evaluation defaults (§7.1): K=4096, Writers=1, MaxError=0.04.
type ConcurrentConfig struct {
	// K is the global sketch's nominal entry count (power of two).
	K int
	// Writers is N, the number of writer handles.
	Writers int
	// MaxError is e, the tolerated relaxation error; it sizes both the
	// local buffers (via core.BufferSizeFor) and the eager-phase limit
	// 2/e². Use 1 for the paper's "no eager" configuration.
	MaxError float64
	// BufferSize overrides the derived local buffer size b when > 0.
	BufferSize int
	// EagerLimit overrides the derived 2/e² limit: > 0 sets it
	// explicitly, < 0 disables the eager phase.
	EagerLimit int
	// DisableDoubleBuffering selects the non-optimised ParSketch
	// (ablation only).
	DisableDoubleBuffering bool
	// DisableFiltering turns off Θ-hint pre-filtering (ablation only;
	// §5.2 identifies the filtering as instrumental for performance).
	DisableFiltering bool
	// AdaptiveBuffering enables the §8 extension: once the sketch
	// enters estimation mode, local buffers grow to e·K/(2N). In
	// estimation mode each buffered sample shifts the estimate by
	// 1/Θ, i.e. a relative error of ~1/k per sample, so r_est =
	// 2·N·b_est keeps the relative relaxation error below e while
	// cutting handoff frequency by orders of magnitude.
	AdaptiveBuffering bool
	// UseKMV backs the global sketch with the paper's Algorithm 1 KMV
	// instead of the QuickSelect family (reference/ablation).
	UseKMV bool
	// Seed is the shared hash seed (default hash.DefaultSeed).
	Seed uint64
	// Pool, when non-nil, attaches the sketch to a shared propagation
	// executor instead of a dedicated propagator goroutine (keyed
	// tables attach millions of sketches to one pool).
	Pool *core.PropagatorPool
}

func (c ConcurrentConfig) withDefaults() ConcurrentConfig {
	if c.K == 0 {
		c.K = 4096
	}
	if c.MaxError == 0 {
		c.MaxError = 0.04
	}
	com := core.CommonConfig{Writers: c.Writers, EagerLimit: c.EagerLimit, Seed: c.Seed}.
		WithDefaults(core.EagerLimitFor(c.MaxError), hash.DefaultSeed)
	c.Writers, c.EagerLimit, c.Seed = com.Writers, com.EagerLimit, com.Seed
	if c.BufferSize == 0 {
		c.BufferSize = core.BufferSizeFor(c.K, c.MaxError, c.Writers)
	}
	return c
}

// Concurrent is the paper's concurrent Θ sketch: N writer handles, one
// background propagator, wait-free real-time estimates. It is the Go
// counterpart of the ConcurrentDirectQuickSelectSketch contributed to
// Apache DataSketches.
type Concurrent struct {
	sk     *core.Sketch[uint64, float64]
	global *GlobalSketch
	eng    *Engine
}

// NewConcurrent builds a concurrent Θ sketch; Close it when done.
func NewConcurrent(cfg ConcurrentConfig) *Concurrent {
	c, _ := NewConcurrentFrom(cfg, nil)
	return c
}

// NewConcurrentFrom builds a concurrent Θ sketch whose global state is
// preloaded from a compact (sample set and Θ, see AbsorbCompact), so
// writers pre-filter with the inherited Θ from the first update. The
// compact's seed must match cfg's.
func NewConcurrentFrom(cfg ConcurrentConfig, from *Compact) (*Concurrent, error) {
	e := newEngine(cfg)
	g := e.newGlobal()
	if from != nil {
		// Absorb before core.New so the framework captures the
		// inherited Θ as every writer's initial pre-filtering hint.
		if err := g.AbsorbCompact(from); err != nil {
			return nil, err
		}
	}
	coreCfg := e.core
	coreCfg.Pool = cfg.Pool
	return &Concurrent{sk: core.New[uint64, float64](g, g.NewLocal, coreCfg), global: g, eng: e}, nil
}

// Writer returns the i-th writer handle; each handle may be used by at
// most one goroutine at a time.
func (c *Concurrent) Writer(i int) *ConcurrentWriter {
	return &ConcurrentWriter{w: c.sk.Writer(i), eng: c.eng, global: c.global}
}

// Estimate returns the current unique-count estimate. Wait-free; may
// miss up to Relaxation() of the most recent updates (Theorem 1).
func (c *Concurrent) Estimate() float64 { return c.sk.Query() }

// Compact returns an immutable point-in-time snapshot of the sketch —
// retained hashes, Θ, confidence bounds — that can be serialized with
// MarshalBinary, merged via Union, and persisted, all without touching
// the live sketch again. Unlike Estimate it briefly synchronises with
// the propagator, so it is not wait-free; like Estimate it may miss up
// to Relaxation() recent updates unless writers Flush first.
func (c *Concurrent) Compact() *Compact { return c.global.Compact() }

// Relaxation returns the bound r = 2·N·b on updates a query may miss.
func (c *Concurrent) Relaxation() int { return c.sk.Relaxation() }

// Propagations returns the number of local-buffer merges so far.
func (c *Concurrent) Propagations() int64 { return c.sk.Propagations() }

// Eager reports whether the sketch is still in its eager phase.
func (c *Concurrent) Eager() bool { return c.sk.Eager() }

// K returns the global sketch's nominal entry count.
func (c *Concurrent) K() int { return c.eng.cfg.K }

// Seed returns the hash seed.
func (c *Concurrent) Seed() uint64 { return c.eng.cfg.Seed }

// BufferSize returns the local buffer size b in use.
func (c *Concurrent) BufferSize() int { return c.eng.cfg.BufferSize }

// Close stops the propagator. Flush all writers first if every update
// must be reflected in the final estimate.
func (c *Concurrent) Close() { c.sk.Close() }

// ConcurrentWriter is a single-goroutine update handle. It hashes each
// item once and feeds the Θ-space hash through the framework.
type ConcurrentWriter struct {
	w      *core.Writer[uint64, float64]
	eng    *Engine
	global *GlobalSketch
	// scratch holds a batch's surviving hashes between the hash+filter
	// pass and the framework handoff, reused across calls.
	scratch []uint64
}

// Update processes a byte-slice item.
func (w *ConcurrentWriter) Update(data []byte) {
	w.w.Update(hash.ThetaHashBytes(data, w.eng.cfg.Seed))
}

// UpdateUint64 processes a uint64 item.
func (w *ConcurrentWriter) UpdateUint64(v uint64) {
	w.w.Update(hash.ThetaHashUint64(v, w.eng.cfg.Seed))
}

// UpdateString processes a string item.
func (w *ConcurrentWriter) UpdateString(s string) {
	w.w.Update(hash.ThetaHashString(s, w.eng.cfg.Seed))
}

// UpdateHash processes a pre-hashed Θ-space item.
func (w *ConcurrentWriter) UpdateHash(h uint64) { w.w.Update(h) }

// UpdateUint64Batch processes a slice of uint64 items: hashing and Θ
// pre-filtering happen in one pass over the input, and the surviving
// hashes enter the framework in bulk. This is the recommended
// high-throughput ingestion path for numeric streams.
func (w *ConcurrentWriter) UpdateUint64Batch(vs []uint64) {
	hint := w.global.filterHint(w.w.Hint())
	w.scratch = hash.AppendThetaUint64Filtered(w.scratch[:0], vs, w.eng.cfg.Seed, hint)
	w.w.UpdateBatchPrefiltered(w.scratch)
}

// UpdateHashBatch processes a slice of pre-hashed Θ-space items.
func (w *ConcurrentWriter) UpdateHashBatch(hs []uint64) {
	w.w.UpdateBatchPrefiltered(w.eng.Batch(w.global, &w.scratch, hs, w.w.Hint()))
}

// UpdateStringBatch processes a slice of string items in one
// hash+filter pass; steady state is allocation-free (the hash views
// each string's bytes in place and the scratch buffer is reused).
func (w *ConcurrentWriter) UpdateStringBatch(ss []string) {
	scratch, hint, seed := w.scratch[:0], w.global.filterHint(w.w.Hint()), w.eng.cfg.Seed
	for _, s := range ss {
		if h := hash.ThetaHashString(s, seed); h < hint {
			scratch = append(scratch, h)
		}
	}
	w.scratch = scratch
	w.w.UpdateBatchPrefiltered(scratch)
}

// UpdateBatch processes a slice of byte-slice items in one hash+filter
// pass.
func (w *ConcurrentWriter) UpdateBatch(items [][]byte) {
	scratch, hint, seed := w.scratch[:0], w.global.filterHint(w.w.Hint()), w.eng.cfg.Seed
	for _, it := range items {
		if h := hash.ThetaHashBytes(it, seed); h < hint {
			scratch = append(scratch, h)
		}
	}
	w.scratch = scratch
	w.w.UpdateBatchPrefiltered(scratch)
}

// Hint returns the writer's current pre-filtering Θ.
func (w *ConcurrentWriter) Hint() uint64 { return w.w.Hint() }

// Flush propagates any buffered updates and waits for them to be
// reflected in the global estimate.
func (w *ConcurrentWriter) Flush() { w.w.Flush() }
