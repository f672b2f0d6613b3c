package table

import (
	"time"

	"github.com/fcds/fcds/internal/core"
)

// HotKeyPolicy enables adaptive per-key configurations: the table
// counts each key's ingested updates and, when a key's count crosses
// HotThreshold, rebuilds that key's sketch through the engine's
// ScaleUp ladder — snapshotting the current state as a compact and
// creating a sketch with the scaled configuration, seeded from that
// compact via the family's compact-merge path (same pool worker:
// affinity is key-derived), so the live sketch keeps the key's full
// history and, for Θ, its earned pre-filtering strength.
//
// What scales is family-dependent (see core.ScalableEngine): Θ doubles
// the local buffer size b (handoffs halve); quantiles double the
// accuracy parameter k and b; HLL doubles only b. The scaled engines
// skip the eager phase — a key only promotes after a volume threshold,
// far past the small-stream regime. Growing b doubles that key's
// relaxation bound r = 2·N·b per promotion — hot keys trade staleness
// headroom (still bounded, still per key) for fewer handoffs. Compacts
// leaving the table are normalized back to the base parameter, so
// snapshot wire compatibility and cross-table merges are unaffected.
type HotKeyPolicy struct {
	// HotThreshold is the per-key ingested-update count that triggers
	// a promotion; the counter resets on promotion, so a key that
	// stays hot climbs one ladder step per threshold crossing. <= 0
	// disables the policy.
	HotThreshold int64
	// MaxPromotions caps how many times one key may be promoted
	// (ladder depth). 0 means 3. The ladder also ends where the
	// engine's ScaleUp reports its cap.
	MaxPromotions int
	// CoolAfter, when > 0, enables demotion: DemoteCooled rebuilds
	// every promoted key that has been idle for at least CoolAfter one
	// ladder step down (seeded from its own compact, same pool worker
	// — the exact reverse of the promotion rebuild), so cooled keys
	// shed their enlarged buffers and their doubled relaxation bound
	// instead of keeping them until eviction. A key that cooled
	// through several levels sheds one per DemoteCooled pass.
	CoolAfter time.Duration
}

// initHot builds the promotion ladder once, at construction: up to
// MaxPromotions engines up the base engine's ScaleUp chain. The policy
// stays off when it is nil, disabled, or the engine cannot scale.
func (t *Table[K, V, S, C]) initHot(p *HotKeyPolicy) {
	if p == nil || p.HotThreshold <= 0 {
		return
	}
	se, ok := t.eng.(core.ScalableEngine[V, S, C])
	if !ok {
		return
	}
	t.scal = se
	depth := p.MaxPromotions
	if depth <= 0 {
		depth = 3
	}
	for i := 0; i < depth; i++ {
		next, ok := se.ScaleUp()
		if !ok {
			break
		}
		// Ladder engines must be scalable themselves: the promotion
		// rebuild seeds the new sketch through them.
		nse, ok := next.(core.ScalableEngine[V, S, C])
		if !ok {
			break
		}
		t.ladder = append(t.ladder, nse)
		se = nse
	}
	if len(t.ladder) > 0 {
		t.hot = p
	}
}

// promote rebuilds a hot entry's sketch through the next ladder
// engine: flush every slot (exclusive access makes this safe, as in
// finalize), capture the full history as a compact, close the old
// sketch and start the scaled one — seeded from that compact, on the
// same pool worker — in its place. Callers must hold no table or
// entry locks; an entry already evicted (dead) is left untouched.
func (t *Table[K, V, S, C]) promote(e *entry[V, S, C], h uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lvl := int(e.level.Load())
	if e.dead || lvl >= len(t.ladder) || e.hits.Load() < t.hot.HotThreshold {
		return
	}
	for i := 0; i < t.cfg.Writers; i++ {
		e.sk.Flush(i)
	}
	c := e.sk.Compact()
	e.sk.Close()
	next := t.ladder[lvl]
	e.sk = next.NewSketchSeeded(t.pool, affinityKeyOf(h), c)
	e.eng = next
	e.level.Store(int32(lvl + 1))
	e.hits.Store(0)
	t.promotions.Add(1)
}

// demote rebuilds a promoted entry one ladder step down, seeded from
// its own compact (normalized to the target engine's parameter) on the
// same pool worker — the exact inverse of promote. The entry must
// still be idle past cutoff once the exclusive lock is held: an update
// that raced the scan wins and the demotion is skipped. Callers must
// hold no table or entry locks.
func (t *Table[K, V, S, C]) demote(e *entry[V, S, C], h uint64, cutoff int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	lvl := int(e.level.Load())
	if e.dead || lvl == 0 || e.touched.Load() >= cutoff {
		return false
	}
	for i := 0; i < t.cfg.Writers; i++ {
		e.sk.Flush(i)
	}
	target := t.scal
	if lvl > 1 {
		target = t.ladder[lvl-2]
	}
	c := e.sk.Compact()
	if e.eng.Param() != target.Param() {
		norm := target.NewAggregator()
		_ = norm.Add(c)
		c = norm.Result()
	}
	e.sk.Close()
	e.sk = target.NewSketchSeeded(t.pool, affinityKeyOf(h), c)
	e.eng = target
	e.level.Store(int32(lvl - 1))
	e.hits.Store(0)
	t.demotions.Add(1)
	return true
}

// DemoteCooled rebuilds every promoted key that has been idle for at
// least HotKeyPolicy.CoolAfter one ladder step down, shedding the
// enlarged local buffers (and the doubled relaxation bound r) that a
// past hot phase earned. Returns the number of keys demoted. A no-op
// when no hot-key policy is active or CoolAfter is zero. Like
// EvictExpired, call it periodically; each pass sheds at most one
// level per key.
func (t *Table[K, V, S, C]) DemoteCooled() int {
	if t.hot == nil || t.hot.CoolAfter <= 0 {
		return 0
	}
	cutoff := t.now() - t.hot.CoolAfter.Nanoseconds()
	type cand struct {
		e *entry[V, S, C]
		h uint64
	}
	var cands []cand
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			if e.level.Load() > 0 && e.touched.Load() < cutoff {
				cands = append(cands, cand{e, keyHash(k)})
			}
		}
		sh.mu.RUnlock()
	}
	n := 0
	for _, c := range cands {
		if t.demote(c.e, c.h, cutoff) {
			n++
		}
	}
	return n
}

// noteHot credits n ingested updates to the entry and reports whether
// the caller should promote it (the counter just crossed the
// threshold and the ladder has a next step). Safe without locks.
func (t *Table[K, V, S, C]) noteHot(e *entry[V, S, C], n int) bool {
	if t.hot == nil {
		return false
	}
	after := e.hits.Add(int64(n))
	return after >= t.hot.HotThreshold &&
		after-int64(n) < t.hot.HotThreshold &&
		int(e.level.Load()) < len(t.ladder)
}

// hotRef is one deferred hot-key promotion.
type hotRef[V, S, C any] struct {
	e *entry[V, S, C]
	h uint64
}

// noteHot credits e with group g's whole run — the items staged and the
// items pass 1 dropped alike, since the hot-key policy, like TTL/LRU
// eviction, counts updates, not what the sketch kept of them — and
// queues the promotion if that crossed the threshold.
func (w *Writer[K, V, S, C]) noteHot(g *bgroup[K, V, S, C], e *entry[V, S, C]) {
	if w.t.noteHot(e, len(g.vals)+g.drops) {
		w.hotPending = append(w.hotPending, hotRef[V, S, C]{e: e, h: g.hash})
	}
}
