package window

import (
	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/table"
)

// Table is a sliding-window keyed sketch table: one table.Table whose
// per-key sketch is an epoch ring, so the table's writer caches, key
// placement and flat Θ arrays live for the whole window.
// A rotation is an epoch bump plus one table.Sweep that seals every
// key's ring and removes a key with nothing left in the window (its
// live sketch took no update in the epoch just sealed, and every sealed
// epoch of it has expired). A window read racing a rotation may see
// some keys before it and others after.
//
// The table configuration applies window-wide: MaxKeys counts keys
// with data anywhere in the window, and OnEvict receives an evicted
// key's whole-window compact. Expiry is the window's TTL (there is no
// EvictExpired).
type Table[K table.Key, V, S, C any] struct {
	clock
	eng core.Engine[V, S, C] // the family's: compacts leave through it
	t   *table.Table[K, V, S, C]
}

// NewTable builds a sliding-window keyed table whose per-key sketches
// come from the engine (a family config's Engine method gives the
// (tcfg, eng) pair); Close it when done. The window's pool falls back
// to the table config's: cfg.Pool, then tcfg.Pool, else an owned pool
// of GOMAXPROCS workers.
func NewTable[K table.Key, V, S, C any](tcfg table.Config[K], eng core.Engine[V, S, C], cfg Config) *Table[K, V, S, C] {
	w := &Table[K, V, S, C]{eng: eng}
	w.clock.init(cfg.withDefaults(), tcfg.Pool, w.Rotate)
	tcfg.Pool = w.pool
	w.t = table.New(tcfg, newRingEngine(eng, &w.clock))
	return w
}

// Writer returns the i-th keyed ingestion handle (0 <= i <
// Config.Writers of the table config): the table's own writer, which
// keeps its entry cache across rotations. Single-goroutine use.
func (w *Table[K, V, S, C]) Writer(i int) *table.Writer[K, V, S, C] { return w.t.Writer(i) }

// RelaxationPerEpoch returns r = 2·N·b, the bound on a key's updates a
// per-key window query may miss — in the whole window, since only the
// active epoch can hold updates a query misses.
func (w *Table[K, V, S, C]) RelaxationPerEpoch() int { return w.eng.Relaxation() }

// Keys returns the number of keys with data anywhere in the window.
func (w *Table[K, V, S, C]) Keys() int { return w.t.Keys() }

// QueryWindow returns the key's query answer over the last Slots
// epochs; false when the key has nothing in the window.
func (w *Table[K, V, S, C]) QueryWindow(k K) (S, bool) {
	c, ok := w.t.CompactKey(k)
	if !ok {
		var zero S
		return zero, false
	}
	return w.eng.QueryCompact(c), true
}

// CompactWindowKey returns a mergeable serializable compact of one
// key's whole-window state; false when the key is not in the window.
// A key with data in one place (its sealed epochs' union or its active
// epoch) gets that compact unmerged; a miss allocates nothing.
func (w *Table[K, V, S, C]) CompactWindowKey(k K) (C, bool) { return w.t.CompactKey(k) }

// RollupWindow merges every key's whole window into one compact.
func (w *Table[K, V, S, C]) RollupWindow() C { return w.t.Rollup() }

// WindowSnapshot captures the whole window as one mergeable,
// serializable table snapshot of per-key whole-window compacts — the
// distributed-aggregation path for windows. The error is always nil.
func (w *Table[K, V, S, C]) WindowSnapshot() (*table.TableSnapshot[K, C], error) {
	return w.t.Snapshot(), nil
}

// Rotate advances the window by one epoch: the epoch bump, then one
// sweep that flushes each key's writer slots, seals its ring, and
// removes keys with nothing left in the window. Safe to call at any
// time, beside ingestion and reads, as often as wanted.
func (w *Table[K, V, S, C]) Rotate() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	e := w.advance()
	w.t.Sweep(func(_ K, sk core.EngineSketch[V, S, C]) bool {
		return sk.(*ring[V, S, C]).seal(e, w.cfg.Slots)
	})
}

// Drain flushes every writer slot of every key, so reads reflect all
// prior updates. All writer handles must be quiescent.
func (w *Table[K, V, S, C]) Drain() { w.t.Drain() }

// Close stops rotation, closes the table and, when owned, the
// propagator pool. All writer handles must be quiescent. Idempotent.
func (w *Table[K, V, S, C]) Close() {
	if !w.shut() {
		return
	}
	w.t.Close()
	if w.ownPool {
		w.pool.Close()
	}
}
