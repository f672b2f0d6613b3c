// Package hll implements a HyperLogLog cardinality sketch (Flajolet et
// al., with the small-range bias correction of Heule et al.'s HLL++).
//
// The paper's generic framework (§5) is sketch-agnostic; HLL is the
// third instantiation we provide, demonstrating the "future work may
// leverage our framework for other sketches" direction (§8) — the
// artifact appendix also lists HLL. HLL merges are register-wise max,
// which makes the local/global propagation of the framework especially
// cheap: a local HLL of the same precision merges in O(m).
package hll

import (
	"errors"
	"math"
	"math/bits"

	"github.com/fcds/fcds/internal/hash"
)

// Sketch is a dense HyperLogLog sketch. Not safe for concurrent use;
// use the core framework for concurrency.
type Sketch struct {
	p    uint8 // precision: 2^p registers
	seed uint64
	regs []uint8
	// sum is the running Σ 2^-reg and zeros the count of zero
	// registers; maintaining them incrementally makes Estimate O(1),
	// which the concurrent global sketch needs to republish its
	// snapshot after every merge.
	sum   float64
	zeros int
	// floor is the minimum register as of the last recalc (a merge or
	// a decode); UpdateHash leaves it alone. Registers only rise, so it
	// is always a lower bound on the true minimum: an item whose rank is
	// at most floor can raise no register, now or later.
	floor uint8
}

// ErrPrecisionMismatch is returned when merging sketches with different
// precisions or seeds.
var ErrPrecisionMismatch = errors.New("hll: precision or seed mismatch")

// New returns an empty HLL sketch with precision p in [4, 18]
// (m = 2^p registers; RSE ≈ 1.04/sqrt(m)).
func New(p uint8) *Sketch { return NewSeeded(p, hash.DefaultSeed) }

// NewSeeded returns an empty sketch with an explicit hash seed.
func NewSeeded(p uint8, seed uint64) *Sketch {
	if p < 4 || p > 18 {
		panic("hll: precision must be in [4, 18]")
	}
	m := 1 << p
	return &Sketch{p: p, seed: seed, regs: make([]uint8, m), sum: float64(m), zeros: m}
}

// Precision returns the precision parameter p.
func (s *Sketch) Precision() uint8 { return s.p }

// Seed returns the hash seed.
func (s *Sketch) Seed() uint64 { return s.seed }

// Update processes one stream item given as raw bytes.
func (s *Sketch) Update(data []byte) {
	h, _ := hash.Sum128(data, s.seed)
	s.UpdateHash(h)
}

// UpdateUint64 processes one uint64 stream item.
func (s *Sketch) UpdateUint64(v uint64) {
	h, _ := hash.SumUint64(v, s.seed)
	s.UpdateHash(h)
}

// UpdateString processes one string stream item.
func (s *Sketch) UpdateString(v string) {
	h, _ := hash.SumString(v, s.seed)
	s.UpdateHash(h)
}

// UpdateHash processes a pre-hashed item (full 64-bit hash, not Θ
// space). The top p bits select a register; the rank of the remaining
// bits updates it.
func (s *Sketch) UpdateHash(h uint64) {
	idx := h >> (64 - s.p)
	rho := rank(h, s.p)
	if old := s.regs[idx]; rho > old {
		s.regs[idx] = rho
		s.sum += pow2neg[rho] - pow2neg[old]
		if old == 0 {
			s.zeros--
		}
	}
}

// rank is ρ(h): one plus the leading zeros of the bits below the top p,
// which select the register.
func rank(h uint64, p uint8) uint8 {
	rest := h<<p | 1<<(uint(p)-1) // guard bit bounds rho at 64-p+1
	return uint8(bits.LeadingZeros64(rest)) + 1
}

// Estimate returns the estimated number of distinct items. O(1): the
// register sum is maintained incrementally.
func (s *Sketch) Estimate() float64 {
	m := float64(len(s.regs))
	est := alpha(len(s.regs)) * m * m / s.sum
	// Small-range correction: linear counting while registers are
	// sparse (empirically better than raw HLL below 2.5m).
	if est <= 2.5*m && s.zeros > 0 {
		return m * math.Log(m/float64(s.zeros))
	}
	return est
}

// recalc recomputes the incremental estimate state and the register
// floor from the registers.
func (s *Sketch) recalc() {
	s.sum = 0
	s.zeros = 0
	floor := uint8(math.MaxUint8)
	for _, r := range s.regs {
		s.sum += pow2neg[r]
		if r == 0 {
			s.zeros++
		}
		floor = min(floor, r)
	}
	s.floor = floor
}

// pow2neg[r] is 2^-r for every rank a register can hold (at most
// 64-p+1). 2^-r is exact for integer r, so the sums over it equal the
// math.Exp2 sums they replace bit for bit, without a call per register.
var pow2neg = func() (t [65]float64) {
	for r := range t {
		t[r] = math.Exp2(-float64(r))
	}
	return t
}()

// alpha is the HLL bias-correction constant for m registers.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// Merge folds other into s (register-wise max). Precisions and seeds
// must match.
func (s *Sketch) Merge(other *Sketch) error {
	if other.p != s.p || other.seed != s.seed {
		return ErrPrecisionMismatch
	}
	for i, r := range other.regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
	s.recalc()
	return nil
}

// Reset restores the sketch to empty, retaining its register array.
func (s *Sketch) Reset() {
	clear(s.regs)
	m := len(s.regs)
	s.sum = float64(m)
	s.zeros = m
	s.floor = 0
}

// IsEmpty reports whether all registers are zero.
func (s *Sketch) IsEmpty() bool {
	for _, r := range s.regs {
		if r != 0 {
			return false
		}
	}
	return true
}

// RelativeStandardError returns the a-priori RSE 1.04/sqrt(m).
func (s *Sketch) RelativeStandardError() float64 {
	return 1.04 / math.Sqrt(float64(len(s.regs)))
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	cp := &Sketch{p: s.p, seed: s.seed, regs: make([]uint8, len(s.regs)), sum: s.sum, zeros: s.zeros, floor: s.floor}
	copy(cp.regs, s.regs)
	return cp
}
