package theta

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
)

// sortedReference is what the parent's eager sort produced for the same
// samples: the bytes every MarshalBinary of c must equal.
func sortedReference(t *testing.T, c *Compact) []byte {
	t.Helper()
	var hs []uint64
	c.read(func(hashes []uint64, _ bool) { hs = slices.Clone(hashes) })
	slices.Sort(hs)
	return marshal(t, newCompactOrdered(hs, c.Theta(), c.Seed()))
}

// estimationCompact is a compact well into estimation mode, as
// QuickSelect.Compact hands it over.
func estimationCompact(k, n int, salt uint64) *Compact {
	qs := NewQuickSelect(k)
	for i := 0; i < n; i++ {
		qs.UpdateUint64(salt<<32 | uint64(i))
	}
	return qs.Compact()
}

// TestProducersHandOverUnordered: no producer pays for order, every
// consumer that needs it gets it, and the consumers that do not leave
// the compact as it was.
func TestProducersHandOverUnordered(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	flatEng, concEng := flatEngine(1), NewEngine(ConcurrentConfig{K: 256, MaxError: 1})
	flat := flatEng.NewSketch(pool)
	defer flat.Close()
	conc := concEng.NewSketch(pool)
	defer conc.Close()
	for i := uint64(0); i < 5000; i++ {
		if i < flatLimit/2 {
			flat.UpdateHashed(0, flatEng.HashValue(i))
		}
		conc.UpdateHashed(0, concEng.HashValue(i))
	}
	conc.Flush(0)

	a, b := estimationCompact(256, 5000, 1), estimationCompact(256, 5000, 2)
	small := NewUnion(4096)
	_ = small.Add(a)
	x := NewIntersection()
	_ = x.Add(a)
	_ = x.Add(estimationCompact(256, 6000, 1))
	diff, _ := AnotB(a, b)
	kmv := NewKMV(64)
	for i := uint64(0); i < 1000; i++ {
		kmv.UpdateUint64(i)
	}
	for name, c := range map[string]*Compact{
		"QuickSelect.Compact":    a,
		"flat key Compact":       flat.Compact(),
		"concurrent key Compact": conc.Compact(),
		"untrimmed Union.Result": small.Result(),
		"Intersection.Result":    x.Result(),
		"AnotB":                  diff,
		"KMV.Compact":            kmv.Compact(),
	} {
		if c.Retained() < 2 {
			t.Fatalf("%s: %d samples, the check needs two", name, c.Retained())
		}
		if c.IsOrdered() {
			t.Errorf("%s: ordered on arrival", name)
		}
		want := sortedReference(t, c)
		u := NewUnion(256)
		_ = u.Add(c)
		_ = NewQuickSelect(256).AbsorbCompact(c)
		_, _, _ = c.Estimate(), c.Theta(), c.Retained()
		if c.IsOrdered() {
			t.Errorf("%s: an order-free read sorted it", name)
		}
		if got := marshal(t, c); !bytes.Equal(got, want) {
			t.Errorf("%s: bytes differ from the eagerly sorted reference", name)
		}
		if !c.IsOrdered() || !slices.IsSorted(c.Hashes()) {
			t.Errorf("%s: not ordered after MarshalBinary", name)
		}
	}

	// Where order is free or was needed anyway, it is kept.
	trimmed := NewUnion(256)
	_ = trimmed.Add(a)
	_ = trimmed.Add(b)
	parsed, err := UnmarshalCompact(marshal(t, a))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Compact{
		"trimmed Union.Result": trimmed.Result(),
		"UnmarshalCompact":     parsed,
		"EmptyCompact":         EmptyCompact(hash.DefaultSeed),
	} {
		if !c.IsOrdered() {
			t.Errorf("%s: not ordered", name)
		}
	}
	// A trimmed result owns k samples, not a k-long window into an array
	// the size of whatever the gadget held (up to 15/8·k, depending on
	// the order its inputs arrived in).
	if got := cap(trimmed.Result().Hashes()); got != 256 {
		t.Errorf("trimmed Union.Result holds an array of %d samples for its 256", got)
	}
}

// TestCompactSharedAcrossGoroutines: one unordered compact handed to
// goroutines that merge it, query it and ask for its bytes and its
// ordered samples all at once. Run under -race; every marshal must be
// byte-identical to the eagerly sorted reference and every merge must
// see the whole sample set, whichever side of the one sort it ran on.
func TestCompactSharedAcrossGoroutines(t *testing.T) {
	const goroutines, rounds = 12, 40
	for r := 0; r < rounds; r++ {
		c := estimationCompact(256, 4000, uint64(r))
		want := sortedReference(t, c)
		wantEst, wantN := c.Estimate(), c.Retained()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				switch g % 4 {
				case 0:
					u := NewUnion(4096) // above every count: nothing is trimmed
					if err := u.Add(c); err != nil {
						t.Error(err)
					}
					if res := u.Result(); res.Retained() != wantN || res.Theta() != c.Theta() {
						t.Errorf("union of the shared compact: %d samples Θ=%d, want %d Θ=%d",
							res.Retained(), res.Theta(), wantN, c.Theta())
					}
				case 1:
					if c.Estimate() != wantEst || c.Retained() != wantN {
						t.Error("estimate moved")
					}
				case 2:
					if got, err := c.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
						t.Errorf("marshal differs from the sorted reference (err=%v)", err)
					}
				case 3:
					if hs := c.Hashes(); len(hs) != wantN || !slices.IsSorted(hs) {
						t.Error("Hashes not ascending")
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}

// TestUnionOrderedInputsMatchUnordered: the early exit Union.Add takes
// on an ordered input skips only samples the running Θ already
// excludes, so a union fed ordered compacts ends with the same Θ and
// the same retained set as one fed the same samples unordered. Inputs
// range from exact mode to deep estimation mode, so their Θ falls on
// both sides of the running union Θ, in seeded random order.
func TestUnionOrderedInputsMatchUnordered(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x0fcd5))
		k := 16 << rng.IntN(5) // 16 … 256
		inputs := make([]*Compact, 2+rng.IntN(10))
		for i := range inputs {
			// Below k (exact, Θ = 1), around the rebuild threshold, far
			// above it (Θ ≪ 1); overlapping item ranges.
			n := []int{rng.IntN(k), k + rng.IntN(2*k), 20 * k, 200 * k}[rng.IntN(4)]
			qs := NewQuickSelect(k)
			base := uint64(rng.IntN(4)) * uint64(k)
			for j := 0; j < n; j++ {
				qs.UpdateUint64(base + uint64(j))
			}
			inputs[i] = qs.Compact()
		}
		unordered, ordered := NewUnion(k), NewUnion(k)
		for _, c := range inputs {
			if err := unordered.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range inputs {
			c.order()
			if err := ordered.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		u, o := unordered.Result(), ordered.Result()
		if u.Theta() != o.Theta() || !slices.Equal(u.Hashes(), o.Hashes()) {
			t.Fatalf("seed %d (k=%d, %d inputs): ordered inputs gave Θ=%d/%d samples, unordered Θ=%d/%d",
				seed, k, len(inputs), o.Theta(), o.Retained(), u.Theta(), u.Retained())
		}
	}
}

// TestDisabledEagerPhaseStaysDisabled: a negative EagerLimit survives
// NewEngine's and the sketch's default passes, so an engine built
// without an eager phase runs none in core; nor does a flat key that
// materializes, whose history is past the short-stream regime the
// phase is for.
func TestDisabledEagerPhaseStaysDisabled(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	concurrentOf := func(sk core.EngineSketch[uint64, float64, *Compact]) *core.Sketch[uint64, float64] {
		c := sk.(*core.FamilySketch[uint64, float64, *Compact]).Live()
		if c == nil {
			t.Fatal("sketch is flat, want concurrent")
		}
		return c
	}
	base := NewEngine(ConcurrentConfig{K: 256, Writers: 1}) // eager limit 2/e² = 1250
	if base.cfg.EagerLimit <= 0 {
		t.Fatalf("base engine has no eager phase (limit %d)", base.cfg.EagerLimit)
	}
	off := NewEngine(ConcurrentConfig{K: 256, Writers: 1, EagerLimit: -1})
	if lim := off.cfg.EagerLimit; lim >= 0 {
		t.Errorf("engine's eager limit = %d, want negative (disabled)", lim)
	}
	fresh := off.NewSketch(pool)
	defer fresh.Close()
	if concurrentOf(fresh).Eager() {
		t.Error("sketch of an engine without an eager phase runs core's eager phase")
	}

	// A flat key that materializes is past the phase too.
	grown := base.NewSketch(pool)
	defer grown.Close()
	for i := uint64(0); i < uint64(base.cfg.EagerLimit)+10; i++ {
		grown.UpdateHashed(0, base.HashValue(i))
	}
	if concurrentOf(grown).Eager() {
		t.Error("materialized flat key runs core's eager phase")
	}
}

// TestAbsorbIntoEmptySketchIgnoresSampleOrder: a flat key materializes
// by handing its samples, in arrival order, to an empty QuickSelect.
// With more of them than the table holds between rebuilds the sketch
// ends as the k smallest under Θ = the (k+1)-th — what the parent's
// sorted hand-over produced — whatever order they lie in; with fewer it
// keeps them all, exact.
func TestAbsorbIntoEmptySketchIgnoresSampleOrder(t *testing.T) {
	const k = 16 // rebuilds at 30 samples
	for _, n := range []int{20, 29, 30, 31, 200} {
		hs := make([]uint64, n)
		for i := range hs {
			hs[i] = hash.ThetaHashUint64(uint64(i), hash.DefaultSeed)
		}
		sorted := slices.Clone(hs)
		slices.Sort(sorted)
		rng := rand.New(rand.NewPCG(uint64(n), 1))
		for trial := 0; trial < 5; trial++ {
			rng.Shuffle(n, func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
			qs := NewQuickSelect(k)
			if err := qs.AbsorbCompact(newCompactFromUnsorted(slices.Clone(hs), hash.MaxThetaValue, hash.DefaultSeed)); err != nil {
				t.Fatal(err)
			}
			want, wantTheta := sorted, uint64(hash.MaxThetaValue)
			if n >= 30 {
				want, wantTheta = sorted[:k], sorted[k]
			}
			if got := qs.Compact(); got.Theta() != wantTheta || !slices.Equal(got.Hashes(), want) {
				t.Fatalf("n=%d trial %d: Θ=%d with %d samples, want Θ=%d with %d", n, trial, got.Theta(), got.Retained(), wantTheta, len(want))
			}
		}
	}
}
