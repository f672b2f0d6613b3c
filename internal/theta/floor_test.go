package theta

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hash"
)

// TestFloorFallsOnEveryPath: a sketch handed a floor cell keeps it at
// min(low, Θ) through every path that offers it hashes — the flat
// array (flatAdd), buffered merges (Merge), the eager phase
// (UpdateDirect), a compact absorbed when a flat key materializes or
// one with Θ below 1 and no samples at all (AbsorbCompact) — and a cell
// handed over late falls at once to what the sketch already holds.
// Since every hash here is distinct, each path's floor is exactly that
// minimum.
func TestFloorFallsOnEveryPath(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	vals := make([]uint64, 300)
	for i := range vals {
		vals[i] = uint64(i) + 1
	}
	minHash := func(vs []uint64) uint64 {
		low := uint64(math.MaxUint64)
		for _, v := range vs {
			low = min(low, hash.ThetaHashUint64(v, hash.DefaultSeed))
		}
		return low
	}
	check := func(name string, cell *atomic.Uint64, want uint64) {
		t.Helper()
		if got := cell.Load(); got != want {
			t.Errorf("%s: cell %d, want %d", name, got, want)
		}
	}
	for _, kmv := range []bool{false, true} {
		flatEng := NewEngine(ConcurrentConfig{K: 16, Writers: 1, MaxError: 0.2, UseKMV: kmv}) // eager limit 50
		noEager := NewEngine(ConcurrentConfig{K: 16, Writers: 1, MaxError: 1, BufferSize: 8, UseKMV: kmv})

		var cell atomic.Uint64
		cell.Store(math.MaxUint64)
		sk := flatEng.NewSketch(pool)
		sk.(core.FloorSketch).SetFloor(&cell)
		sk.UpdateHashedBatch(0, flatEng.AppendHashValues(nil, vals[:30]))
		check("flatAdd", &cell, minHash(vals[:30]))
		// The flat array materializes through AbsorbCompact; the run that
		// crossed the limit goes through the buffers and Merge.
		sk.UpdateHashedBatch(0, flatEng.AppendHashValues(nil, vals[30:]))
		sk.Flush(0)
		check("flat, then concurrent", &cell, minHash(vals))
		sk.Close()

		cell.Store(math.MaxUint64)
		sk = noEager.NewSketch(pool)
		sk.(core.FloorSketch).SetFloor(&cell)
		sk.UpdateHashedBatch(0, noEager.AppendHashValues(nil, vals[100:]))
		sk.Flush(0)
		check("Merge", &cell, minHash(vals[100:]))
		sk.Close()

		cell.Store(math.MaxUint64)
		sk = flatEng.NewSketch(pool)
		sk.UpdateHashedBatch(0, flatEng.AppendHashValues(nil, vals[:20]))
		sk.(core.FloorSketch).SetFloor(&cell)
		check("SetFloor on a flat sketch", &cell, minHash(vals[:20]))
		sk.Close()

		cell.Store(math.MaxUint64)
		sk = noEager.NewSketch(pool)
		sk.UpdateHashedBatch(0, noEager.AppendHashValues(nil, vals[200:]))
		sk.Flush(0)
		sk.(core.FloorSketch).SetFloor(&cell)
		check("SetFloor on a concurrent sketch", &cell, minHash(vals[200:]))
		sk.Close()

		newGlobal := func() *GlobalSketch {
			if kmv {
				return NewGlobalKMV(16, hash.DefaultSeed)
			}
			return NewGlobal(16, hash.DefaultSeed)
		}
		cell.Store(math.MaxUint64)
		g := newGlobal()
		g.setFloor(&cell)
		for _, v := range vals[:5] {
			g.UpdateDirect(hash.ThetaHashUint64(v, hash.DefaultSeed))
		}
		check("UpdateDirect", &cell, minHash(vals[:5]))

		// A compact in estimation mode: its samples are all above a
		// floor the hashes before it set, so AbsorbCompact only matters
		// on a fresh global.
		est := estimationCompact(16, 5000, 3)
		cell.Store(math.MaxUint64)
		g = newGlobal()
		g.setFloor(&cell)
		if err := g.AbsorbCompact(est); err != nil {
			t.Fatal(err)
		}
		check("AbsorbCompact", &cell, slices.Min(est.Hashes()))
		// Θ below 1 and no samples: the union would fold that Θ in, so
		// the floor must not stay above it.
		cell.Store(math.MaxUint64)
		g = newGlobal()
		g.setFloor(&cell)
		if err := g.AbsorbCompact(newCompactFromUnsorted(nil, est.Theta(), hash.DefaultSeed)); err != nil {
			t.Fatal(err)
		}
		want := est.Theta()
		if kmv {
			want = hash.MaxThetaValue // KMV absorbs the samples alone
		}
		check("AbsorbCompact without samples", &cell, want)
	}
}

// TestSketchSizeClasses pins the two structs every Θ table key
// allocates to the Go size classes they fill. The family sketch is all
// of a flat key's sketch, and table_wide holds ~47 k keys, most of them
// flat: moving it to the 128 B class read +2.4 % on that workload's
// state_mb. GlobalSketch, one per concurrent key, has no room beyond
// its 64 B either.
func TestSketchSizeClasses(t *testing.T) {
	if n := unsafe.Sizeof(core.FamilySketch[uint64, float64, *Compact]{}); n > 112 {
		t.Errorf("core.FamilySketch is %d B, want ≤ 112 (one size class)", n)
	}
	if n := unsafe.Sizeof(GlobalSketch{}); n > 64 {
		t.Errorf("GlobalSketch is %d B, want ≤ 64 (one size class)", n)
	}
}
