package theta

import (
	"errors"

	"github.com/fcds/fcds/internal/hash"
)

// Sketch is the read-side API shared by every Θ sketch variant in this
// package (KMV, QuickSelect, Compact, and the concurrent global).
type Sketch interface {
	// Estimate returns the estimated number of unique items processed.
	Estimate() float64
	// Theta returns the current threshold in Θ space (2^63 == 1.0).
	Theta() uint64
	// Retained returns the number of hash samples currently stored.
	Retained() int
	// IsEstimationMode reports whether Θ < 1, i.e. the sketch is
	// sampling rather than counting exactly.
	IsEstimationMode() bool
	// ForEachHash calls fn for every retained hash, in unspecified
	// order — except on a Compact, which promises ascending order and
	// sorts itself for the first such call. The set operations in this
	// package therefore read a Compact's samples directly, unordered,
	// and call ForEachHash only on the updatable sketches.
	ForEachHash(fn func(uint64))
	// Seed returns the hash seed; sketches are only mergeable when
	// their seeds match.
	Seed() uint64
}

// ErrSeedMismatch is returned by set operations and deserialization
// when two sketches were built with different hash seeds.
var ErrSeedMismatch = errors.New("theta: hash seed mismatch")

// estimateFrom computes retained/Θ, the standard Θ estimator. In exact
// mode (Θ == 1) it returns the exact retained count.
func estimateFrom(theta uint64, retained int) float64 {
	if theta >= hash.MaxThetaValue {
		return float64(retained)
	}
	return float64(retained) / hash.FractionOf(theta)
}
