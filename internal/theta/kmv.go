package theta

import (
	"github.com/fcds/fcds/internal/hash"
)

// KMV is the K-Minimum-Values Θ sketch of the paper's Algorithm 1. It
// retains the k smallest distinct hashes seen so far in a binary
// max-heap (so eviction of the largest is O(log k)) plus a membership
// set for O(1) duplicate detection.
//
// Estimation semantics: while fewer than k distinct hashes have been
// seen, Θ = 1 and the estimate is the exact distinct count. Once full,
// Θ is the k-th smallest hash and the estimate is (k-1)/Θ — the
// unbiased KMV estimator (E[(k-1)/M(k)] = n). Algorithm 1 writes the
// estimate as (|sampleSet|-1)/Θ in both regimes; we return the exact
// count below k, matching both DataSketches semantics and the paper's
// own observation that "the sequential Θ sketch answers queries with
// perfect accuracy in streams with up to k unique elements" (§5.3).
//
// KMV is not safe for concurrent use; wrap it with lockbased.Locked or
// use the core framework for concurrency.
type KMV struct {
	k    int
	seed uint64
	// heap is a max-heap of the k smallest hashes (heap[0] largest).
	heap []uint64
	// members mirrors heap contents for duplicate rejection.
	members map[uint64]struct{}
	theta   uint64
}

// NewKMV returns an empty KMV sketch with capacity k (k >= 2) and the
// library default hash seed.
func NewKMV(k int) *KMV { return NewKMVSeeded(k, hash.DefaultSeed) }

// NewKMVSeeded returns an empty KMV sketch with an explicit hash seed.
func NewKMVSeeded(k int, seed uint64) *KMV {
	if k < 2 {
		panic("theta: KMV requires k >= 2")
	}
	return &KMV{
		k:       k,
		seed:    seed,
		heap:    make([]uint64, 0, k),
		members: make(map[uint64]struct{}, k),
		theta:   hash.MaxThetaValue,
	}
}

// Update processes one stream item given as raw bytes.
func (s *KMV) Update(data []byte) { s.UpdateHash(hash.ThetaHashBytes(data, s.seed)) }

// UpdateUint64 processes one uint64 stream item.
func (s *KMV) UpdateUint64(v uint64) { s.UpdateHash(hash.ThetaHashUint64(v, s.seed)) }

// UpdateString processes one string stream item.
func (s *KMV) UpdateString(v string) { s.UpdateHash(hash.ThetaHashString(v, s.seed)) }

// UpdateHash processes a pre-hashed item (Θ-space hash). This is the
// paper's update(a) after h(a) has been computed; the concurrent
// framework uses it to hash exactly once per item.
func (s *KMV) UpdateHash(h uint64) {
	// Algorithm 1 line 9: if h(arg) >= Θ, ignore.
	if h >= s.theta {
		return
	}
	if _, dup := s.members[h]; dup {
		return
	}
	if len(s.heap) < s.k {
		s.members[h] = struct{}{}
		s.heapPush(h)
		if len(s.heap) == s.k {
			s.theta = s.heap[0] // Θ ← max(sampleSet)
		}
		return
	}
	// Full: replace the current maximum (which is >= h since h < Θ).
	old := s.heap[0]
	delete(s.members, old)
	s.members[h] = struct{}{}
	s.heap[0] = h
	s.siftDown(0)
	s.theta = s.heap[0]
}

// Merge folds all samples of other into s (the paper's S.merge(S')).
// The sketches must share a hash seed.
func (s *KMV) Merge(other Sketch) error {
	if other.Seed() != s.seed {
		return ErrSeedMismatch
	}
	forEachHashUnordered(other, s.UpdateHash)
	return nil
}

// Estimate implements Sketch.
func (s *KMV) Estimate() float64 {
	if s.theta >= hash.MaxThetaValue {
		return float64(len(s.heap)) // exact regime
	}
	// (k-1)/Θ: the sample set includes Θ itself as its maximum.
	return float64(s.k-1) / hash.FractionOf(s.theta)
}

// Theta implements Sketch.
func (s *KMV) Theta() uint64 { return s.theta }

// Retained implements Sketch.
func (s *KMV) Retained() int { return len(s.heap) }

// IsEstimationMode implements Sketch.
func (s *KMV) IsEstimationMode() bool { return s.theta < hash.MaxThetaValue }

// ForEachHash implements Sketch.
func (s *KMV) ForEachHash(fn func(uint64)) {
	for _, h := range s.heap {
		fn(h)
	}
}

// Seed implements Sketch.
func (s *KMV) Seed() uint64 { return s.seed }

// K returns the configured sample-set capacity.
func (s *KMV) K() int { return s.k }

// Reset restores the sketch to the empty state, retaining its buffers.
func (s *KMV) Reset() {
	s.heap = s.heap[:0]
	clear(s.members)
	s.theta = hash.MaxThetaValue
}

// Compact returns an immutable snapshot of the sketch.
func (s *KMV) Compact() *Compact {
	hashes := make([]uint64, len(s.heap))
	copy(hashes, s.heap)
	return newCompactFromUnsorted(hashes, s.theta, s.seed)
}

// appendBelow appends the retained samples below lim (>= 1) to dst, in
// heap order.
func (s *KMV) appendBelow(dst []uint64, lim uint64) []uint64 {
	return appendBelow(dst, s.heap, lim, len(s.heap))
}

// heapPush inserts h into the max-heap.
func (s *KMV) heapPush(h uint64) {
	s.heap = append(s.heap, h)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent] >= s.heap[i] {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

// siftDown restores the heap property from index i.
func (s *KMV) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && s.heap[l] > s.heap[largest] {
			largest = l
		}
		if r < n && s.heap[r] > s.heap[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		s.heap[i], s.heap[largest] = s.heap[largest], s.heap[i]
		i = largest
	}
}
