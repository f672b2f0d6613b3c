package theta

import (
	"github.com/fcds/fcds/internal/hash"
)

// rebuildFraction controls when the QuickSelect sketch rebuilds: at
// count = rebuildFraction × 2k the table is compacted back to k
// entries. 15/16 matches DataSketches' REBUILD_THRESHOLD: the full
// table has 2k slots, as HeapQuickSelectSketch's does, so it rebuilds
// at load 15/16.
const (
	rebuildNum = 15
	rebuildDen = 16
)

// stackSamples is how many samples a rebuild (or AbsorbCompact) copies
// into an array on its stack: thresh for k ≤ 512. More spill to one
// transient heap copy.
const stackSamples = 1024

// QuickSelect is the HeapQuickSelectSketch-family Θ sketch used by the
// paper's evaluation (§7.1): it stores between k and ~2k hashes and,
// when full, quickselects the (k+1)-th smallest value as the new Θ,
// discarding everything above it. Updates are a hash-table insert and
// rebuilds are O(retained), so amortised update cost is O(1).
//
// The estimate is retained/Θ, exact while Θ = 1. The sketch holds its
// samples and nothing else: a rebuild's copy of them is transient. Not
// safe for concurrent use; see ConcurrentSketch / lockbased.Locked.
type QuickSelect struct {
	k     int
	seed  uint64
	table *hashTable
	theta uint64
	// thresh is the retained count that triggers a rebuild.
	thresh int
}

// NewQuickSelect returns an empty QuickSelect sketch with nominal entry
// count k (a power of two >= 16, e.g. 4096) and the default seed.
func NewQuickSelect(k int) *QuickSelect {
	return NewQuickSelectSeeded(k, hash.DefaultSeed)
}

// NewQuickSelectSeeded returns an empty QuickSelect sketch with an
// explicit hash seed. The hash table starts at 64 slots and doubles as
// the sketch fills (DataSketches' resize behaviour), so short streams
// pay KBs, not the full 2k-slot footprint.
func NewQuickSelectSeeded(k int, seed uint64) *QuickSelect {
	if k < 16 || k&(k-1) != 0 {
		panic("theta: QuickSelect requires k a power of two >= 16")
	}
	return &QuickSelect{
		k:      k,
		seed:   seed,
		table:  newHashTable(64),
		theta:  hash.MaxThetaValue,
		thresh: 2 * k * rebuildNum / rebuildDen,
	}
}

// maybeGrow doubles the table when its load factor reaches 1/2,
// stopping at the full 2k-slot size, where quickselect rebuilds bound
// the count instead (load ≤ 15/16). A k=16 sketch keeps its initial 64
// slots.
func (s *QuickSelect) maybeGrow() {
	if len(s.table.slots) >= 2*s.k || 2*s.table.count < len(s.table.slots) {
		return
	}
	old := s.table
	s.table = newHashTable(2 * len(old.slots))
	for _, h := range old.slots {
		if h != 0 {
			s.table.insert(h)
		}
	}
}

// Update processes one stream item given as raw bytes.
func (s *QuickSelect) Update(data []byte) { s.UpdateHash(hash.ThetaHashBytes(data, s.seed)) }

// UpdateUint64 processes one uint64 stream item.
func (s *QuickSelect) UpdateUint64(v uint64) { s.UpdateHash(hash.ThetaHashUint64(v, s.seed)) }

// UpdateString processes one string stream item.
func (s *QuickSelect) UpdateString(v string) { s.UpdateHash(hash.ThetaHashString(v, s.seed)) }

// UpdateHash processes a pre-hashed item (Θ-space hash).
func (s *QuickSelect) UpdateHash(h uint64) {
	if h >= s.theta {
		return
	}
	if !s.table.insert(h) {
		return
	}
	if s.table.count >= s.thresh {
		s.rebuild()
		return
	}
	s.maybeGrow()
}

// rebuild quickselects the (k+1)-th smallest retained hash as the new
// Θ and keeps only hashes strictly below it ("the sketch is sorted and
// the largest k values are discarded", §7.1).
func (s *QuickSelect) rebuild() {
	var buf [stackSamples]uint64
	hs := s.table.appendAll(buf[:0])
	pivot := selectKth(hs, s.k+1)
	s.theta = pivot
	// Retained hashes are distinct, so exactly k values lie strictly
	// below the (k+1)-th smallest.
	s.refill(hs, pivot)
}

// refill empties the table and inserts the hashes of hs below lim.
func (s *QuickSelect) refill(hs []uint64, lim uint64) {
	s.table.reset()
	for _, h := range hs {
		if h < lim {
			s.table.insert(h)
		}
	}
}

// Merge folds all samples of other into s. Seeds must match.
func (s *QuickSelect) Merge(other Sketch) error {
	if other.Seed() != s.seed {
		return ErrSeedMismatch
	}
	forEachHashUnordered(other, s.UpdateHash)
	return nil
}

// Estimate implements Sketch.
func (s *QuickSelect) Estimate() float64 { return estimateFrom(s.theta, s.table.count) }

// Theta implements Sketch.
func (s *QuickSelect) Theta() uint64 { return s.theta }

// Retained implements Sketch.
func (s *QuickSelect) Retained() int { return s.table.count }

// IsEstimationMode implements Sketch.
func (s *QuickSelect) IsEstimationMode() bool { return s.theta < hash.MaxThetaValue }

// ForEachHash implements Sketch.
func (s *QuickSelect) ForEachHash(fn func(uint64)) {
	for _, v := range s.table.slots {
		if v != 0 {
			fn(v)
		}
	}
}

// Seed implements Sketch.
func (s *QuickSelect) Seed() uint64 { return s.seed }

// K returns the nominal entry count.
func (s *QuickSelect) K() int { return s.k }

// Reset restores the sketch to the empty state, retaining its buffers.
func (s *QuickSelect) Reset() {
	s.table.reset()
	s.theta = hash.MaxThetaValue
}

// Compact returns an immutable snapshot of the sketch, its samples in
// table order (see Compact for when they get sorted).
func (s *QuickSelect) Compact() *Compact {
	hashes := s.table.appendAll(make([]uint64, 0, s.table.count))
	return newCompactFromUnsorted(hashes, s.theta, s.seed)
}

// appendBelow appends the retained samples below lim (>= 1) to dst, in
// table order.
func (s *QuickSelect) appendBelow(dst []uint64, lim uint64) []uint64 {
	return appendBelow(dst, s.table.slots, lim, s.table.count)
}

// AbsorbCompact folds a compact's full state into the sketch: its
// sample set AND its Θ. Unlike Merge (which replays only the hashes),
// the resulting Θ is min(s.Θ, c.Θ), so a sketch seeded from a compact
// filters exactly as hard as the sketch the compact was taken from.
// Seeds must match.
//
// An empty sketch handed more samples than the table holds between
// rebuilds (a flat table key materializing) rebuilds first: it keeps
// the k smallest with Θ the (k+1)-th, so its state is a function of the
// sample set alone, not of the order the samples lie in.
func (s *QuickSelect) AbsorbCompact(c *Compact) error {
	if c.Seed() != s.seed {
		return ErrSeedMismatch
	}
	if t := c.Theta(); t < s.theta {
		s.theta = t
		if s.table.count > 0 {
			// Discard retained hashes invalidated by the lower Θ.
			var buf [stackSamples]uint64
			s.refill(s.table.appendAll(buf[:0]), t)
		}
	}
	c.read(func(hashes []uint64, _ bool) {
		if s.table.count == 0 && len(hashes) >= s.thresh {
			// selectKth reorders its input, and the compact's array is
			// not ours to reorder.
			var buf [stackSamples]uint64
			s.theta = selectKth(append(buf[:0], hashes...), s.k+1)
		}
		for _, h := range hashes {
			s.UpdateHash(h)
		}
	})
	return nil
}
