package theta

import (
	"math/bits"
	"slices"
)

// hashTable is an insert-only open-addressing set of nonzero Θ-space
// hashes. Zero marks an empty slot (Θ hashes are never zero). Probing
// is double-hash style: the stride is derived from the high bits of the
// key and forced odd, so it is co-prime with the power-of-two capacity
// and visits every slot.
type hashTable struct {
	slots []uint64
	mask  uint64
	count int
}

// newHashTable returns a table with at least capacity slots (rounded up
// to a power of two). Callers must keep the load factor below 1 by
// rebuilding; insert panics on a full table to make violations loud.
func newHashTable(capacity int) *hashTable {
	if capacity < 2 {
		capacity = 2
	}
	n := 1 << bits.Len(uint(capacity-1))
	return &hashTable{slots: make([]uint64, n), mask: uint64(n - 1)}
}

// insert adds h to the set. It reports whether h was newly inserted
// (false means it was already present).
func (t *hashTable) insert(h uint64) bool {
	i := h & t.mask
	stride := ((h >> 32) | 1) & t.mask
	for probes := 0; probes <= len(t.slots); probes++ {
		v := t.slots[i]
		if v == 0 {
			t.slots[i] = h
			t.count++
			return true
		}
		if v == h {
			return false
		}
		i = (i + stride) & t.mask
	}
	panic("theta: hash table full; rebuild threshold violated")
}

// contains reports whether h is in the set.
func (t *hashTable) contains(h uint64) bool {
	i := h & t.mask
	stride := ((h >> 32) | 1) & t.mask
	for probes := 0; probes <= len(t.slots); probes++ {
		v := t.slots[i]
		if v == 0 {
			return false
		}
		if v == h {
			return true
		}
		i = (i + stride) & t.mask
	}
	return false
}

// appendAll appends every stored hash to dst and returns it. Whether a
// slot is occupied is a coin toss to the branch predictor, so the loop
// has no branch on it: every slot is stored at the write position and
// the position advances only past a hash (a conditional move), until
// the last hash is in place.
func (t *hashTable) appendAll(dst []uint64) []uint64 {
	n, end := len(dst), len(dst)+t.count
	dst = slices.Grow(dst, t.count)[:end]
	for i := 0; n < end; i++ {
		v := t.slots[i]
		dst[n] = v
		if v != 0 {
			n++
		}
	}
	return dst
}

// appendBelow appends to dst every sample of hs below lim, in the order
// they lie, and returns it; at most `most` of them may qualify. hs may
// be a flat array or a table's slots: a zero word is never below lim.
// As in appendAll, whether a word qualifies is a coin toss to the
// branch predictor, so the loop has no branch on it: every word is
// stored at the write position, which advances past a qualifying one
// by a conditional move. The test is one unsigned compare — h-1 wraps
// to the largest word for an empty slot — so lim must be at least 1.
func appendBelow(dst, hs []uint64, lim uint64, most int) []uint64 {
	n := len(dst)
	dst = slices.Grow(dst, most+1)[:n+most+1]
	top := lim - 1
	for _, h := range hs {
		dst[n] = h
		if h-1 < top {
			n++
		}
	}
	return dst[:n]
}

// reset clears the table in place.
func (t *hashTable) reset() {
	clear(t.slots)
	t.count = 0
}
