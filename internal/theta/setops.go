package theta

import (
	"github.com/fcds/fcds/internal/hash"
)

// Union computes the Θ-sketch union of multiple sketches. It maintains
// an internal QuickSelect "gadget" plus a running minimum Θ over all
// inputs; Result returns a compact sketch summarizing the concatenation
// of all input streams (the mergeability property of §3).
type Union struct {
	gadget   *QuickSelect
	unionMin uint64 // min Θ over all inputs seen so far
}

// NewUnion returns an empty union with nominal entry count k.
func NewUnion(k int) *Union { return NewUnionSeeded(k, hash.DefaultSeed) }

// NewUnionSeeded returns an empty union with an explicit seed.
func NewUnionSeeded(k int, seed uint64) *Union {
	return &Union{
		gadget:   NewQuickSelectSeeded(k, seed),
		unionMin: hash.MaxThetaValue,
	}
}

// Add folds a sketch into the union. Seeds must match. A compact is
// read in whatever order it has: unordered, every sample is offered to
// the gadget; ordered, the walk stops at the first sample that the
// union's running Θ — min(unionMin, gadget Θ) — already excludes, since
// every later one is larger still.
func (u *Union) Add(s Sketch) error {
	if s.Seed() != u.gadget.seed {
		return ErrSeedMismatch
	}
	if t := s.Theta(); t < u.unionMin {
		u.unionMin = t
	}
	c, ok := s.(*Compact)
	if !ok {
		s.ForEachHash(func(h uint64) {
			if h < u.unionMin {
				u.gadget.UpdateHash(h)
			}
		})
		return nil
	}
	c.read(u.insert)
	return nil
}

// insert offers samples to the gadget, each only while it is below the
// union's running Θ; ordered, it stops at the first one that is not.
func (u *Union) insert(hashes []uint64, ordered bool) {
	for _, h := range hashes {
		// The gadget's Θ falls when an insert rebuilds it.
		if h < min(u.unionMin, u.gadget.theta) {
			u.gadget.UpdateHash(h)
		} else if ordered {
			return
		}
	}
}

// bound is the first half of Add for a sample set read in place (see
// unionAggregator): it folds the set's Θ into the running minimum and
// returns the running Θ, at least 1. A sample at or above it cannot
// enter the union now or after any later insert, so a reader may leave
// it behind and hand the rest to insert. The minimum is stored only
// when it falls, so a union that is read many times (once per key of a
// rollup) is not written each time. A reader that keeps a lower bound on
// its smallest sample — never above it, and only ever falling (the
// sketches' low) — may leave the whole set behind when that bound is at
// or above the returned one; it must call bound first all the same, so
// the set's Θ is folded in.
//
// The one exception is a reader whose lower bound covers the set's Θ
// too: a floor f ≤ min(low, Θ), as a table shard keeps for every key it
// holds (see core.FloorSketch). When f is at or above b, the value
// bound returns with MaxThetaValue, the set may be left unread, Θ and
// all. Its samples are all ≥ low ≥ f ≥ b, so none can enter. Its Θ is
// ≥ f ≥ b ≥ min(unionMin, gadget Θ), and that minimum only falls:
// folding the Θ in would not move it, now or after any later input, and
// the minimum is all of unionMin that decides what the union keeps and
// what Result returns.
func (u *Union) bound(theta uint64) uint64 {
	if theta < u.unionMin {
		u.unionMin = theta
	}
	return max(min(u.unionMin, u.gadget.theta), 1)
}

// AddHash feeds a single pre-hashed item into the union (allows using a
// union directly as a streaming sketch).
func (u *Union) AddHash(h uint64) { u.gadget.UpdateHash(h) }

// Result returns the compact union sketch. The union may continue to
// be used afterwards.
func (u *Union) Result() *Compact {
	theta := u.gadget.theta
	if u.unionMin < theta {
		theta = u.unionMin
	}
	hashes := make([]uint64, 0, u.gadget.Retained())
	u.gadget.ForEachHash(func(h uint64) {
		if h < theta {
			hashes = append(hashes, h)
		}
	})
	return newCompactFromUnsorted(hashes, theta, u.gadget.seed).trimmedToK(u.gadget.k)
}

// Reset restores the union to empty.
func (u *Union) Reset() {
	u.gadget.Reset()
	u.unionMin = hash.MaxThetaValue
}

// Intersection computes the Θ-sketch intersection. Standard semantics:
// the result Θ is the minimum input Θ and the retained set is the
// intersection of the inputs' retained sets below that Θ. The relative
// error grows as the intersection shrinks (inherent to the method).
type Intersection struct {
	seed  uint64
	theta uint64
	// hashes is nil until the first Add; nil means "universal set".
	hashes map[uint64]struct{}
}

// NewIntersection returns an intersection in its universal initial
// state (intersecting nothing yields "everything").
func NewIntersection() *Intersection { return NewIntersectionSeeded(hash.DefaultSeed) }

// NewIntersectionSeeded returns an empty intersection with an explicit
// seed.
func NewIntersectionSeeded(seed uint64) *Intersection {
	return &Intersection{seed: seed, theta: hash.MaxThetaValue}
}

// Add intersects s into the running result. Seeds must match.
func (x *Intersection) Add(s Sketch) error {
	if s.Seed() != x.seed {
		return ErrSeedMismatch
	}
	if t := s.Theta(); t < x.theta {
		x.theta = t
	}
	incoming := make(map[uint64]struct{}, s.Retained())
	forEachHashUnordered(s, func(h uint64) { incoming[h] = struct{}{} })
	if x.hashes == nil {
		x.hashes = incoming
		return nil
	}
	for h := range x.hashes {
		if _, ok := incoming[h]; !ok {
			delete(x.hashes, h)
		}
	}
	return nil
}

// Result returns the compact intersection sketch. Calling Result before
// any Add returns an empty exact sketch (the estimate of "everything"
// is undefined; we follow DataSketches in rejecting it).
func (x *Intersection) Result() *Compact {
	if x.hashes == nil {
		return EmptyCompact(x.seed)
	}
	hashes := make([]uint64, 0, len(x.hashes))
	for h := range x.hashes {
		if h < x.theta {
			hashes = append(hashes, h)
		}
	}
	return newCompactFromUnsorted(hashes, x.theta, x.seed)
}

// AnotB returns a compact sketch of the set difference A \ B: retained
// hashes of A below min(Θ_A, Θ_B) that do not appear in B.
func AnotB(a, b Sketch) (*Compact, error) {
	if a.Seed() != b.Seed() {
		return nil, ErrSeedMismatch
	}
	theta := a.Theta()
	if bt := b.Theta(); bt < theta {
		theta = bt
	}
	inB := make(map[uint64]struct{}, b.Retained())
	forEachHashUnordered(b, func(h uint64) { inB[h] = struct{}{} })
	hashes := make([]uint64, 0, a.Retained())
	forEachHashUnordered(a, func(h uint64) {
		if h < theta {
			if _, ok := inB[h]; !ok {
				hashes = append(hashes, h)
			}
		}
	})
	return newCompactFromUnsorted(hashes, theta, a.Seed()), nil
}

// JaccardEstimate estimates the Jaccard similarity |A∩B| / |A∪B| of the
// streams summarized by a and b, using k for the internal union.
func JaccardEstimate(a, b Sketch, k int) (float64, error) {
	if a.Seed() != b.Seed() {
		return 0, ErrSeedMismatch
	}
	u := NewUnionSeeded(k, a.Seed())
	if err := u.Add(a); err != nil {
		return 0, err
	}
	if err := u.Add(b); err != nil {
		return 0, err
	}
	union := u.Result()
	x := NewIntersectionSeeded(a.Seed())
	if err := x.Add(a); err != nil {
		return 0, err
	}
	if err := x.Add(b); err != nil {
		return 0, err
	}
	inter := x.Result()
	ue := union.Estimate()
	if ue == 0 {
		return 0, nil
	}
	return inter.Estimate() / ue, nil
}
