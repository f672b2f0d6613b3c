package hll

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestEmptyEstimateIsZero(t *testing.T) {
	s := New(12)
	if est := s.Estimate(); est != 0 {
		t.Errorf("empty estimate = %v, want 0", est)
	}
	if !s.IsEmpty() {
		t.Error("fresh sketch not empty")
	}
}

func TestSmallCardinalityLinearCounting(t *testing.T) {
	// The small-range correction should make tiny counts near-exact.
	s := New(12)
	for i := uint64(0); i < 100; i++ {
		s.UpdateUint64(i)
	}
	if est := s.Estimate(); math.Abs(est-100) > 3 {
		t.Errorf("estimate = %v, want ~100", est)
	}
}

func TestAccuracyAcrossScales(t *testing.T) {
	p := uint8(12) // m=4096, RSE ~ 1.6%
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		s := New(p)
		for i := 0; i < n; i++ {
			s.UpdateUint64(uint64(i))
		}
		re := math.Abs(s.Estimate()-float64(n)) / float64(n)
		if re > 5*s.RelativeStandardError() {
			t.Errorf("n=%d: relative error %.4f > 5 RSE (est=%v)", n, re, s.Estimate())
		}
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	s := New(12)
	for rep := 0; rep < 20; rep++ {
		for i := uint64(0); i < 500; i++ {
			s.UpdateUint64(i)
		}
	}
	if re := math.Abs(s.Estimate()-500) / 500; re > 0.1 {
		t.Errorf("estimate with heavy duplication = %v, want ~500", s.Estimate())
	}
}

func TestMergeDisjoint(t *testing.T) {
	a, b := New(12), New(12)
	for i := uint64(0); i < 50000; i++ {
		a.UpdateUint64(i)
		b.UpdateUint64(i + 50000)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	re := math.Abs(a.Estimate()-100000) / 100000
	if re > 5*a.RelativeStandardError() {
		t.Errorf("merged estimate %v for 100k uniques", a.Estimate())
	}
}

func TestMergeIdempotent(t *testing.T) {
	a, b := New(10), New(10)
	for i := uint64(0); i < 10000; i++ {
		a.UpdateUint64(i)
		b.UpdateUint64(i)
	}
	before := a.Estimate()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != before {
		t.Errorf("merging identical sketch changed estimate %v -> %v", before, a.Estimate())
	}
}

func TestMergeEqualsConcatenation(t *testing.T) {
	whole := New(12)
	a, b := New(12), New(12)
	for i := uint64(0); i < 60000; i++ {
		whole.UpdateUint64(i)
		if i%3 == 0 {
			a.UpdateUint64(i)
		} else {
			b.UpdateUint64(i)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Register-wise max is exactly order-insensitive: estimates match
	// exactly, not just approximately.
	if a.Estimate() != whole.Estimate() {
		t.Errorf("merge %v != concatenation %v", a.Estimate(), whole.Estimate())
	}
}

func TestMergeMismatch(t *testing.T) {
	if err := New(10).Merge(New(12)); err != ErrPrecisionMismatch {
		t.Errorf("precision mismatch err = %v", err)
	}
	if err := NewSeeded(10, 1).Merge(NewSeeded(10, 2)); err != ErrPrecisionMismatch {
		t.Errorf("seed mismatch err = %v", err)
	}
}

func TestReset(t *testing.T) {
	s := New(10)
	for i := uint64(0); i < 1000; i++ {
		s.UpdateUint64(i)
	}
	s.Reset()
	if !s.IsEmpty() || s.Estimate() != 0 {
		t.Error("reset did not clear sketch")
	}
}

func TestClone(t *testing.T) {
	s := New(10)
	for i := uint64(0); i < 5000; i++ {
		s.UpdateUint64(i)
	}
	c := s.Clone()
	if c.Estimate() != s.Estimate() {
		t.Fatal("clone estimate differs")
	}
	// Mutating the clone must not affect the original.
	for i := uint64(5000); i < 50000; i++ {
		c.UpdateUint64(i)
	}
	if re := math.Abs(s.Estimate()-5000) / 5000; re > 0.1 {
		t.Error("mutating clone changed original")
	}
}

func TestPrecisionBounds(t *testing.T) {
	for _, p := range []uint8{0, 3, 19} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", p)
				}
			}()
			New(p)
		}()
	}
}

func TestStringAndByteUpdatesAgree(t *testing.T) {
	a, b := New(10), New(10)
	for _, w := range []string{"x", "y", "zebra", "hyperloglog"} {
		a.UpdateString(w)
		b.Update([]byte(w))
	}
	if a.Estimate() != b.Estimate() {
		t.Error("string/byte update paths disagree")
	}
}

func TestRhoCapOnPathologicalHash(t *testing.T) {
	// A hash whose suffix is all zeros must not produce rho > 64-p+1.
	s := New(4)
	s.UpdateHash(0) // idx 0, rest 0
	if s.regs[0] != 64-4+1 {
		t.Errorf("register = %d, want %d (capped rho)", s.regs[0], 64-4+1)
	}
}

func BenchmarkUpdate(b *testing.B) {
	s := New(12)
	for i := 0; i < b.N; i++ {
		s.UpdateUint64(uint64(i))
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := New(12)
	for i := uint64(0); i < 100000; i++ {
		s.UpdateUint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate()
	}
}

// TestRegisterSumMatchesExp2 holds the table-driven register sum to the
// math.Exp2 sum it replaced, bit for bit, in recalc and in UpdateHash,
// at every precision over random registers.
func TestRegisterSumMatchesExp2(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for p := uint8(4); p <= 18; p++ {
		s := New(p)
		maxRank := 64 - int(p) + 1
		for i := range s.regs {
			s.regs[i] = uint8(rng.IntN(maxRank + 1))
		}
		s.recalc()
		var want float64
		for _, r := range s.regs {
			want += math.Exp2(-float64(r))
		}
		if math.Float64bits(s.sum) != math.Float64bits(want) {
			t.Fatalf("p=%d: recalc sum %v, Exp2 sum %v", p, s.sum, want)
		}
		s.Reset()
		want = s.sum
		for range 4 << p {
			// Shift some hashes right so high ranks occur too.
			h := rng.Uint64() >> (rng.IntN(64-int(p)) &^ 7)
			idx := h >> (64 - p)
			if rho, old := rank(h, p), s.regs[idx]; rho > old {
				want += math.Exp2(-float64(rho)) - math.Exp2(-float64(old))
			}
			s.UpdateHash(h)
		}
		if math.Float64bits(s.sum) != math.Float64bits(want) {
			t.Fatalf("p=%d: UpdateHash sum %v, Exp2 sum %v", p, s.sum, want)
		}
	}
}
