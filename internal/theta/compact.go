package theta

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/fcds/fcds/internal/hash"
)

// Compact is an immutable Θ sketch: the result of compacting an
// updatable sketch or a set operation. Its Θ, seed and sample *set*
// never change, so it is safe to share across goroutines; the *order*
// of the samples is acquired on demand. Producers (QuickSelect.Compact,
// a flat table key, the set operations) hand their samples over as
// collected, and everything mergeability needs — Union.Add,
// AbsorbCompact, Estimate, Theta, Retained — reads them that way (§3:
// a merge is order-free). The calls that need order — MarshalBinary,
// Hashes, ForEachHash, and trimming to the (k+1)-th smallest value
// (§7.1) — sort the samples once, in place, the first time any of them
// runs; from then on the compact is ordered for good and Union.Add
// stops at the first sample at or above its running Θ. All of these
// calls are safe concurrently on one compact.
type Compact struct {
	theta uint64
	seed  uint64

	// mu makes the one in-place sort exclusive: order-free readers of a
	// compact that is not yet ordered hold it shared while they iterate,
	// order holds it exclusively. Once ordered is set hashes never
	// changes again and nobody takes mu.
	mu      sync.RWMutex
	ordered atomic.Bool
	hashes  []uint64 // all < theta; ascending once ordered is set
}

// newCompactFromUnsorted takes ownership of hashes, in whatever order
// they were collected.
func newCompactFromUnsorted(hashes []uint64, theta, seed uint64) *Compact {
	c := &Compact{hashes: hashes, theta: theta, seed: seed}
	c.ordered.Store(len(hashes) < 2)
	return c
}

// newCompactOrdered takes ownership of hashes, which are ascending.
func newCompactOrdered(hashes []uint64, theta, seed uint64) *Compact {
	c := &Compact{hashes: hashes, theta: theta, seed: seed}
	c.ordered.Store(true)
	return c
}

// clone returns a copy of c that owns its samples array, in c's order
// — what a holder keeps of one compact that UnmarshalCompacts decoded
// beside others, so as not to keep their shared arrays alive.
func (c *Compact) clone() *Compact {
	var out *Compact
	c.read(func(hashes []uint64, ordered bool) {
		var own []uint64
		if len(hashes) > 0 {
			own = slices.Clone(hashes)
		}
		if ordered {
			out = newCompactOrdered(own, c.theta, c.seed)
		} else {
			out = newCompactFromUnsorted(own, c.theta, c.seed)
		}
	})
	return out
}

// order sorts the samples if no earlier call has and returns them.
func (c *Compact) order() []uint64 {
	if !c.ordered.Load() {
		c.mu.Lock()
		if !c.ordered.Load() {
			slices.Sort(c.hashes)
			c.ordered.Store(true)
		}
		c.mu.Unlock()
	}
	return c.hashes
}

// read calls fn once with the samples as they lie and whether that is
// ascending order. fn must not retain the slice: a later order() may
// sort it.
func (c *Compact) read(fn func(hashes []uint64, ordered bool)) {
	if c.ordered.Load() {
		fn(c.hashes, true)
		return
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(c.hashes, c.ordered.Load())
}

// IsOrdered reports whether the samples have been put in ascending
// order yet (by a call that needed it, or because the compact was
// parsed from bytes).
func (c *Compact) IsOrdered() bool { return c.ordered.Load() }

// forEachHashUnordered visits every retained hash of s in no particular
// order — for a Compact, without making it acquire one.
func forEachHashUnordered(s Sketch, fn func(uint64)) {
	c, ok := s.(*Compact)
	if !ok {
		s.ForEachHash(fn)
		return
	}
	c.read(func(hashes []uint64, _ bool) {
		for _, h := range hashes {
			fn(h)
		}
	})
}

// EmptyCompact returns the compact form of the empty sketch.
func EmptyCompact(seed uint64) *Compact {
	return newCompactOrdered(nil, hash.MaxThetaValue, seed)
}

// Estimate implements Sketch.
func (c *Compact) Estimate() float64 { return estimateFrom(c.theta, len(c.hashes)) }

// Theta implements Sketch.
func (c *Compact) Theta() uint64 { return c.theta }

// Retained implements Sketch.
func (c *Compact) Retained() int { return len(c.hashes) }

// IsEstimationMode implements Sketch.
func (c *Compact) IsEstimationMode() bool { return c.theta < hash.MaxThetaValue }

// ForEachHash implements Sketch; iteration is in ascending hash order
// (the first ordering call sorts the samples, see Compact).
func (c *Compact) ForEachHash(fn func(uint64)) {
	for _, h := range c.order() {
		fn(h)
	}
}

// Seed implements Sketch.
func (c *Compact) Seed() uint64 { return c.seed }

// Hashes returns the retained hashes in ascending order (the first
// ordering call sorts the samples, see Compact). The slice must not be
// modified.
func (c *Compact) Hashes() []uint64 { return c.order() }

// UpperBound returns an approximate upper confidence bound on the true
// unique count at numStdDev standard deviations (1, 2 or 3). It uses
// the normal approximation with RSE = 1/sqrt(retained): for the
// retained counts Θ sketches operate at (hundreds to thousands) this is
// within a fraction of a percent of the exact binomial bound.
func (c *Compact) UpperBound(numStdDev int) float64 {
	return c.bound(numStdDev, +1)
}

// LowerBound is the lower counterpart of UpperBound. It never returns
// less than the retained count when the sketch is in exact mode.
func (c *Compact) LowerBound(numStdDev int) float64 {
	return c.bound(numStdDev, -1)
}

func (c *Compact) bound(numStdDev, sign int) float64 {
	if !c.IsEstimationMode() {
		return float64(len(c.hashes)) // exact
	}
	n := float64(len(c.hashes))
	if n <= 2 {
		if sign < 0 {
			return 0
		}
		return math.Max(c.Estimate(), 1)
	}
	rse := 1 / math.Sqrt(n-2)
	est := c.Estimate()
	b := est * (1 + float64(sign)*float64(numStdDev)*rse)
	if sign < 0 {
		// The true count is at least the number of distinct samples.
		return math.Max(b, n)
	}
	return b
}

// trimmedToK returns a compact sketch with at most k retained entries:
// if more are present, Θ becomes the (k+1)-th smallest hash and larger
// entries are dropped. Set operations use it to restore the nominal-k
// invariant. Only a compact that is actually trimmed is ordered for it;
// the result owns an array of its own size, not a window into c's.
func (c *Compact) trimmedToK(k int) *Compact {
	if len(c.hashes) <= k {
		return c
	}
	hashes := c.order()
	return newCompactOrdered(slices.Clone(hashes[:k]), hashes[k], c.seed)
}
