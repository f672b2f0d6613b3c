package theta

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestQuickSelectExactBelowRebuild(t *testing.T) {
	k := 64
	s := NewQuickSelect(k)
	limit := 2*k*rebuildNum/rebuildDen - 1
	for i := 0; i < limit; i++ {
		s.UpdateUint64(uint64(i))
	}
	if s.IsEstimationMode() {
		t.Fatalf("estimation mode before first rebuild (%d items)", limit)
	}
	if got := s.Estimate(); got != float64(limit) {
		t.Errorf("estimate = %v, want exact %d", got, limit)
	}
}

func TestQuickSelectRebuildKeepsKEntries(t *testing.T) {
	k := 64
	s := NewQuickSelect(k)
	// Drive exactly to the rebuild threshold: the next insert compacts
	// back to k retained entries.
	thresh := 2 * k * rebuildNum / rebuildDen
	for i := 0; i < thresh; i++ {
		s.UpdateUint64(uint64(i))
	}
	if !s.IsEstimationMode() {
		t.Fatal("not in estimation mode after rebuild")
	}
	if s.Retained() != k {
		t.Errorf("retained after rebuild = %d, want k=%d", s.Retained(), k)
	}
	// All retained hashes must be strictly below theta.
	s.ForEachHash(func(h uint64) {
		if h >= s.Theta() {
			t.Fatalf("retained hash %d >= theta %d", h, s.Theta())
		}
	})
}

func TestQuickSelectRetainedBounds(t *testing.T) {
	// "The sketch stores between k and 2k items" once warmed up (§7.1).
	k := 64
	s := NewQuickSelect(k)
	for i := 0; i < 100000; i++ {
		s.UpdateUint64(uint64(i))
		if r := s.Retained(); r >= 2*k {
			t.Fatalf("retained %d >= 2k", r)
		}
	}
	if r := s.Retained(); r < k-1 {
		t.Errorf("retained %d < k-1 after warmup", r)
	}
}

func TestQuickSelectDuplicatesIgnored(t *testing.T) {
	s := NewQuickSelect(64)
	for rep := 0; rep < 5; rep++ {
		for i := 0; i < 50; i++ {
			s.UpdateUint64(uint64(i))
		}
	}
	if got := s.Estimate(); got != 50 {
		t.Errorf("estimate = %v, want 50", got)
	}
}

func TestQuickSelectAccuracy(t *testing.T) {
	k, n := 1024, 200000
	s := NewQuickSelect(k)
	for i := 0; i < n; i++ {
		s.UpdateUint64(uint64(i))
	}
	rse := 1 / math.Sqrt(float64(k-2))
	if re := math.Abs(s.Estimate()-float64(n)) / float64(n); re > 5*rse {
		t.Errorf("relative error %.4f > 5·RSE (est=%v)", re, s.Estimate())
	}
}

func TestQuickSelectUnbiasedAcrossTrials(t *testing.T) {
	k, n, trials := 256, 20000, 200
	var sum float64
	for tr := 0; tr < trials; tr++ {
		s := NewQuickSelectSeeded(k, uint64(tr)*104729+11)
		for i := 0; i < n; i++ {
			s.UpdateUint64(uint64(i))
		}
		sum += s.Estimate()
	}
	mean := sum / float64(trials)
	// Retained varies in [k,2k); RSE ≤ 1/sqrt(k-2). 3 SEM tolerance.
	sem := float64(n) / math.Sqrt(float64(k-2)) / math.Sqrt(float64(trials))
	if math.Abs(mean-float64(n)) > 3*sem {
		t.Errorf("mean estimate %v deviates from n=%d by > 3 SEM (%v)", mean, n, 3*sem)
	}
}

func TestQuickSelectThetaMonotone(t *testing.T) {
	s := NewQuickSelect(64)
	prev := s.Theta()
	for i := 0; i < 50000; i++ {
		s.UpdateUint64(uint64(i))
		if th := s.Theta(); th > prev {
			t.Fatalf("theta increased at update %d", i)
		} else {
			prev = th
		}
	}
}

func TestQuickSelectMergeEquivalence(t *testing.T) {
	k := 128
	whole := NewQuickSelect(k)
	a, b := NewQuickSelect(k), NewQuickSelect(k)
	for i := uint64(0); i < 30000; i++ {
		whole.UpdateUint64(i)
		if i%2 == 0 {
			a.UpdateUint64(i)
		} else {
			b.UpdateUint64(i)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Merge order differs from stream order, so the retained sets can
	// differ slightly; estimates must agree within a few percent of RSE.
	wa, wb := whole.Estimate(), a.Estimate()
	if re := math.Abs(wa-wb) / wa; re > 0.1 {
		t.Errorf("merged estimate %v vs whole %v (re=%v)", wb, wa, re)
	}
}

func TestQuickSelectVsKMVConsistency(t *testing.T) {
	// Same seed, same stream: both estimators must land close together
	// (both are ~unbiased with RSE ~ 1/sqrt(k)).
	k, n := 512, 100000
	qs := NewQuickSelectSeeded(k, 42)
	kmv := NewKMVSeeded(k, 42)
	for i := 0; i < n; i++ {
		qs.UpdateUint64(uint64(i))
		kmv.UpdateUint64(uint64(i))
	}
	rse := 1 / math.Sqrt(float64(k-2))
	if re := math.Abs(qs.Estimate()-kmv.Estimate()) / float64(n); re > 6*rse {
		t.Errorf("QS estimate %v and KMV estimate %v diverge by %v", qs.Estimate(), kmv.Estimate(), re)
	}
}

func TestQuickSelectExactAgreesWithKMVExact(t *testing.T) {
	qs := NewQuickSelectSeeded(64, 9)
	kmv := NewKMVSeeded(64, 9)
	for i := 0; i < 60; i++ {
		qs.UpdateUint64(uint64(i))
		kmv.UpdateUint64(uint64(i))
	}
	if qs.Estimate() != kmv.Estimate() {
		t.Errorf("exact-mode disagreement: qs=%v kmv=%v", qs.Estimate(), kmv.Estimate())
	}
}

func TestQuickSelectReset(t *testing.T) {
	s := NewQuickSelect(64)
	for i := 0; i < 10000; i++ {
		s.UpdateUint64(uint64(i))
	}
	s.Reset()
	if s.Retained() != 0 || s.IsEstimationMode() {
		t.Fatal("reset did not clear sketch")
	}
	for i := 0; i < 10; i++ {
		s.UpdateUint64(uint64(i))
	}
	if s.Estimate() != 10 {
		t.Errorf("estimate after reset = %v, want 10", s.Estimate())
	}
}

func TestQuickSelectPanicsOnBadK(t *testing.T) {
	for _, k := range []int{0, 1, 15, 100} { // 100 not a power of two
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQuickSelect(%d) did not panic", k)
				}
			}()
			NewQuickSelect(k)
		}()
	}
}

func TestSelectKth(t *testing.T) {
	tests := []struct {
		a    []uint64
		k    int
		want uint64
	}{
		{[]uint64{5}, 1, 5},
		{[]uint64{2, 1}, 1, 1},
		{[]uint64{2, 1}, 2, 2},
		{[]uint64{9, 3, 7, 1, 5}, 3, 5},
		{[]uint64{9, 3, 7, 1, 5}, 1, 1},
		{[]uint64{9, 3, 7, 1, 5}, 5, 9},
	}
	for _, tc := range tests {
		a := append([]uint64(nil), tc.a...)
		if got := selectKth(a, tc.k); got != tc.want {
			t.Errorf("selectKth(%v, %d) = %d, want %d", tc.a, tc.k, got, tc.want)
		}
	}
}

func TestSelectKthProperty(t *testing.T) {
	f := func(vals []uint64, kRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		k := int(kRaw)%len(vals) + 1
		a := append([]uint64(nil), vals...)
		got := selectKth(a, k)
		b := append([]uint64(nil), vals...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		return got == b[k-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSelectKthPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("selectKth k=%d did not panic", k)
				}
			}()
			selectKth([]uint64{1, 2, 3}, k)
		}()
	}
}

func TestHashTableInsertContains(t *testing.T) {
	ht := newHashTable(64)
	for i := uint64(1); i <= 30; i++ {
		if !ht.insert(i * 2654435761) {
			t.Fatalf("fresh insert %d reported duplicate", i)
		}
	}
	for i := uint64(1); i <= 30; i++ {
		if !ht.contains(i * 2654435761) {
			t.Fatalf("inserted key %d not found", i)
		}
		if ht.insert(i * 2654435761) {
			t.Fatalf("duplicate insert %d reported fresh", i)
		}
	}
	if ht.contains(999) {
		t.Error("contains reported a never-inserted key")
	}
	if ht.count != 30 {
		t.Errorf("count = %d, want 30", ht.count)
	}
}

func TestHashTableReset(t *testing.T) {
	ht := newHashTable(16)
	ht.insert(12345)
	ht.reset()
	if ht.count != 0 || ht.contains(12345) {
		t.Error("reset did not clear table")
	}
}

func TestHashTableAppendAll(t *testing.T) {
	ht := newHashTable(32)
	want := map[uint64]bool{}
	for i := uint64(1); i <= 20; i++ {
		h := i * 0x9e3779b9
		ht.insert(h)
		want[h] = true
	}
	got := ht.appendAll(nil)
	if len(got) != 20 {
		t.Fatalf("appendAll returned %d values, want 20", len(got))
	}
	for _, h := range got {
		if !want[h] {
			t.Fatalf("appendAll returned unexpected value %d", h)
		}
	}
}

func BenchmarkQuickSelectUpdate(b *testing.B) {
	s := NewQuickSelect(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateUint64(uint64(i))
	}
}

func BenchmarkQuickSelectUpdateHash(b *testing.B) {
	// Update path without the Murmur hash: what the concurrent global
	// pays per propagated item.
	s := NewQuickSelect(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateHash(uint64(i)*0x9e3779b97f4a7c15>>1 | 1)
	}
}

// insertBelowTheta offers s a fresh hash drawn uniformly below its Θ,
// so it is inserted (a repeat is as unlikely as a 64-bit collision):
// the worst case for the table, where every update is an insert and
// every thresh−k of them a rebuild. x is a xorshift state.
func insertBelowTheta(s *QuickSelect, x *uint64) {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	hi, _ := bits.Mul64(*x, s.theta)
	s.UpdateHash(max(hi, 1))
}

// BenchmarkQuickSelectInsert prices an insert at the table's worst
// load: every hash falls below Θ, so the table fills from k to thresh
// and rebuilds, again and again. ns/op is per insert, rebuilds
// amortised in.
func BenchmarkQuickSelectInsert(b *testing.B) {
	for _, k := range []int{256, 4096} {
		b.Run(strconv.Itoa(k), func(b *testing.B) {
			s := NewQuickSelect(k)
			x := uint64(0x9e3779b97f4a7c15)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				insertBelowTheta(s, &x)
			}
		})
	}
}

// TestQuickSelectRebuildAllocs pins a rebuild at k=256 at zero
// allocations: its copy of the samples lives on the stack, not in a
// buffer the sketch keeps.
func TestQuickSelectRebuildAllocs(t *testing.T) {
	const k = 256
	s := NewQuickSelect(k)
	x := uint64(0x9e3779b97f4a7c15)
	for !s.IsEstimationMode() {
		insertBelowTheta(s, &x)
	}
	// One cycle from k samples to the next rebuild, which ends at k.
	cycle := func() {
		for i := 0; i < s.thresh-k; i++ {
			insertBelowTheta(s, &x)
		}
		if s.Retained() != k {
			t.Fatalf("retained %d after a cycle, want %d", s.Retained(), k)
		}
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("%v allocations per insert-and-rebuild cycle, want 0", allocs)
	}
}

func TestQuickSelectTableGrowth(t *testing.T) {
	// The table starts at 64 slots and doubles with fill; correctness
	// must hold across every growth step and the estimate must stay
	// exact until the first rebuild.
	s := NewQuickSelect(4096)
	if len(s.table.slots) != 64 {
		t.Fatalf("initial table %d slots, want 64", len(s.table.slots))
	}
	for i := 0; i < 5000; i++ {
		s.UpdateUint64(uint64(i))
		if !s.IsEstimationMode() && s.Estimate() != float64(i+1) {
			t.Fatalf("estimate %v after %d exact-mode updates", s.Estimate(), i+1)
		}
	}
	if len(s.table.slots) > 2*4096 {
		t.Errorf("table grew past 2k slots: %d", len(s.table.slots))
	}
}

func TestQuickSelectSmallKTableFixed(t *testing.T) {
	s := NewQuickSelect(16)
	for i := 0; i < 100000; i++ {
		s.UpdateUint64(uint64(i))
	}
	if len(s.table.slots) != 64 {
		t.Errorf("k=16 table %d slots, want fixed 64", len(s.table.slots))
	}
}
