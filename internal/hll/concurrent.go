package hll

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
)

// This file instantiates the generic framework with HLL — the "other
// sketches" direction the paper's conclusion points at. Local sketches
// are same-precision HLLs, so propagation is a register-wise max; the
// snapshot is the estimate behind an atomic word, as for Θ.

// localHLL adapts *Sketch to core.Local[uint64] (updates arrive
// pre-hashed).
type localHLL struct{ s *Sketch }

// Update implements core.Local.
func (l localHLL) Update(h uint64) { l.s.UpdateHash(h) }

// UpdateSlice implements core.BatchLocal: one interface dispatch per
// run of hashes instead of one per hash.
func (l localHLL) UpdateSlice(hs []uint64) {
	for _, h := range hs {
		l.s.UpdateHash(h)
	}
}

// Reset implements core.Local.
func (l localHLL) Reset() { l.s.Reset() }

// GlobalSketch is the composable global HLL sketch.
type GlobalSketch struct {
	h *Sketch
	// mu serialises structural access to h (merge/eager paths vs
	// Compact copies); the wait-free estimate read never touches it.
	mu  sync.Mutex
	est atomic.Uint64 // Float64bits of the estimate
	// floor is h's register floor as of the last publish: a lower bound
	// on every register, read wait-free by a composite's writer filter
	// (the engine sketch's CalcHint).
	floor atomic.Uint32
}

var _ core.FamilyGlobal[uint64, float64, *Sketch] = (*GlobalSketch)(nil)

// NewGlobal returns an empty composable global HLL with precision p.
func NewGlobal(p uint8, seed uint64) *GlobalSketch {
	return &GlobalSketch{h: NewSeeded(p, seed)}
}

// Merge implements core.Global (register-wise max).
func (g *GlobalSketch) Merge(l core.Local[uint64]) {
	g.mu.Lock()
	// Same precision and seed by construction.
	if err := g.h.Merge(l.(localHLL).s); err != nil {
		panic("hll: mismatched local sketch: " + err.Error())
	}
	g.publish()
	g.mu.Unlock()
}

// UpdateDirect implements core.Global (eager phase).
func (g *GlobalSketch) UpdateDirect(h uint64) {
	g.mu.Lock()
	g.h.UpdateHash(h)
	g.publish()
	g.mu.Unlock()
}

// Compact returns a register-wise copy of the global sketch,
// serialised against concurrent merges: serializable with
// MarshalBinary and mergeable into other same-precision HLLs.
func (g *GlobalSketch) Compact() *Sketch {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.h.Clone()
}

// Snapshot implements core.Global.
func (g *GlobalSketch) Snapshot() float64 { return math.Float64frombits(g.est.Load()) }

// NewLocal implements core.FamilyGlobal: a same-precision HLL.
func (g *GlobalSketch) NewLocal() core.Local[uint64] {
	return localHLL{s: NewSeeded(g.h.p, g.h.seed)}
}

// FilterHint implements core.FamilyGlobal (Algorithm 1 line 24 for a
// composite's writer): the register floor the last merge published;
// none while some register is still 0. Registers only rise, so the
// floor only rises and a hint once given never lets a hash through that
// could matter later — the eager path does not move the published
// floor, which only makes it lower. A Reset starts a new global at
// floor 0; its owner must make writers forget the old hint first, as a
// table's Sweep does.
func (g *GlobalSketch) FilterHint() (uint64, bool) {
	f := uint64(g.floor.Load())
	return f, f > 0
}

// CalcHint implements core.Global. The framework's own writer does not
// filter HLL: it reads a hint of 0 as 1, and a register floor of 0 —
// nothing to filter — is where every sketch starts. A composite's
// writer filters against the floor instead, through the engine
// sketch's CalcHint and Engine.ShouldAdd.
func (g *GlobalSketch) CalcHint() uint64 { return 1 }

// ShouldAdd implements core.Global; the framework's writer keeps every
// hash (see CalcHint).
func (g *GlobalSketch) ShouldAdd(uint64, uint64) bool { return true }

// publish stores the estimate and, beside it, the register floor the
// last merge computed. The eager path (UpdateDirect) does not move the
// floor, so the published value may lag the registers; a lagging floor
// is still a lower bound and only filters less.
func (g *GlobalSketch) publish() {
	g.est.Store(math.Float64bits(g.h.Estimate()))
	g.floor.Store(uint32(g.h.floor))
}

// ConcurrentConfig configures a concurrent HLL sketch. Zero fields take
// defaults: Precision=12, Writers=1, BufferSize=1024.
type ConcurrentConfig struct {
	// Precision is p; the global and local sketches use 2^p registers.
	Precision uint8
	// Writers is N, the number of writer handles.
	Writers int
	// BufferSize is b, updates buffered per writer between merges; the
	// query relaxation is 2·N·b.
	BufferSize int
	// EagerLimit, when > 0, propagates the first EagerLimit updates
	// eagerly; < 0 disables, 0 uses 2^Precision.
	EagerLimit int
	// Seed is the hash seed.
	Seed uint64
	// Pool, when non-nil, attaches the sketch to a shared propagation
	// executor instead of a dedicated propagator goroutine.
	Pool *core.PropagatorPool
}

func (c ConcurrentConfig) withDefaults() ConcurrentConfig {
	if c.Precision == 0 {
		c.Precision = 12
	}
	com := core.CommonConfig{Writers: c.Writers, EagerLimit: c.EagerLimit, Seed: c.Seed}.
		WithDefaults(1<<c.Precision, hash.DefaultSeed)
	c.Writers, c.EagerLimit, c.Seed = com.Writers, com.EagerLimit, com.Seed
	if c.BufferSize == 0 {
		c.BufferSize = 1024
	}
	return c
}

// Concurrent is the concurrent HLL sketch.
type Concurrent struct {
	sk     *core.Sketch[uint64, float64]
	global *GlobalSketch
	seed   uint64
}

// NewConcurrent builds a concurrent HLL sketch; Close when done.
func NewConcurrent(cfg ConcurrentConfig) *Concurrent {
	e := NewEngine(cfg)
	g := NewGlobal(e.cfg.Precision, e.cfg.Seed)
	coreCfg := e.Config()
	coreCfg.Pool = cfg.Pool
	return &Concurrent{sk: core.New[uint64, float64](g, g.NewLocal, coreCfg), global: g, seed: e.cfg.Seed}
}

// Writer returns the i-th writer handle (single-goroutine use).
func (c *Concurrent) Writer(i int) *ConcurrentWriter {
	return &ConcurrentWriter{w: c.sk.Writer(i), seed: c.seed}
}

// Estimate returns the current estimate (wait-free; may miss up to
// Relaxation() recent updates).
func (c *Concurrent) Estimate() float64 { return c.sk.Query() }

// Relaxation returns the bound r = 2·N·b.
func (c *Concurrent) Relaxation() int { return c.sk.Relaxation() }

// Compact returns a register-wise copy of the sketch: serializable
// with MarshalBinary and mergeable into other same-precision HLLs.
// Not wait-free (it briefly synchronises with the propagator); may
// miss up to Relaxation() recent updates unless writers Flush first.
func (c *Concurrent) Compact() *Sketch { return c.global.Compact() }

// Propagations returns the number of local merges completed.
func (c *Concurrent) Propagations() int64 { return c.sk.Propagations() }

// Close stops the propagator. Flush writers first to drain buffers.
func (c *Concurrent) Close() { c.sk.Close() }

// ConcurrentWriter is a single-goroutine update handle.
type ConcurrentWriter struct {
	w    *core.Writer[uint64, float64]
	seed uint64
	// scratch holds a batch's hashes between the hashing pass and the
	// framework handoff; reused so steady-state batches do not allocate.
	scratch []uint64
}

// Update processes a byte-slice item.
func (w *ConcurrentWriter) Update(data []byte) {
	h, _ := hash.Sum128(data, w.seed)
	w.w.Update(h)
}

// UpdateUint64 processes a uint64 item.
func (w *ConcurrentWriter) UpdateUint64(v uint64) {
	h, _ := hash.SumUint64(v, w.seed)
	w.w.Update(h)
}

// UpdateString processes a string item.
func (w *ConcurrentWriter) UpdateString(s string) {
	h, _ := hash.SumString(s, w.seed)
	w.w.Update(h)
}

// UpdateUint64Batch processes a slice of uint64 items: one hashing
// pass, then a bulk handoff to the framework. Every hash is kept (see
// GlobalSketch.CalcHint).
func (w *ConcurrentWriter) UpdateUint64Batch(vs []uint64) {
	w.scratch = hash.AppendSumUint64(w.scratch[:0], vs, w.seed)
	w.w.UpdateBatchPrefiltered(w.scratch)
}

// UpdateHash processes a pre-hashed item.
func (w *ConcurrentWriter) UpdateHash(h uint64) { w.w.Update(h) }

// UpdateHashBatch processes a slice of pre-hashed items in one bulk
// handoff.
func (w *ConcurrentWriter) UpdateHashBatch(hs []uint64) { w.w.UpdateBatchPrefiltered(hs) }

// UpdateStringBatch processes a slice of string items in one hashing
// pass; steady state is allocation-free.
func (w *ConcurrentWriter) UpdateStringBatch(ss []string) {
	scratch := w.scratch[:0]
	for _, s := range ss {
		h, _ := hash.Sum128String(s, w.seed)
		scratch = append(scratch, h)
	}
	w.scratch = scratch
	w.w.UpdateBatchPrefiltered(scratch)
}

// UpdateBatch processes a slice of byte-slice items in one hashing
// pass.
func (w *ConcurrentWriter) UpdateBatch(items [][]byte) {
	scratch := w.scratch[:0]
	for _, it := range items {
		h, _ := hash.Sum128(it, w.seed)
		scratch = append(scratch, h)
	}
	w.scratch = scratch
	w.w.UpdateBatchPrefiltered(scratch)
}

// Flush propagates buffered updates and waits for completion.
func (w *ConcurrentWriter) Flush() { w.w.Flush() }
