package theta

import (
	"bytes"
	"errors"
	"testing"

	"github.com/fcds/fcds/internal/core"
)

// foreignAggregator is an aggregator AddTo cannot read into in place.
type foreignAggregator struct{ core.Aggregator[*Compact] }

// TestAddToMatchesAddCompact: folding a live sketch into a union in
// place leaves the union byte for byte as adding its compact does — a
// flat sketch, a concurrent one in exact and in estimation mode, over
// QuickSelect and over KMV — whatever the union held before: nothing,
// a Θ above the sketch's, or one far below it (so that the copy leaves
// most samples behind). An aggregator that is not the engine's own gets
// the compact; one of another seed is refused, as Add refuses it.
func TestAddToMatchesAddCompact(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	priors := []*Compact{nil, estimationCompact(64, 500, 7), estimationCompact(64, 20000, 7)}
	for _, kmv := range []bool{false, true} {
		eng := NewEngine(ConcurrentConfig{K: 64, Writers: 1, MaxError: 0.2, UseKMV: kmv}) // eager limit 50
		for _, n := range []int{10, 60, 3000} {
			sk := eng.NewSketchAffine(pool, 1)
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = uint64(i)
			}
			sk.UpdateBatch(0, vals)
			sk.Flush(0)
			for pi, prior := range priors {
				viaAdd, inPlace := eng.NewAggregator(), eng.NewAggregator()
				foreign := foreignAggregator{eng.NewAggregator()}
				if prior != nil {
					_ = viaAdd.Add(prior)
					_ = inPlace.Add(prior)
					_ = foreign.Add(prior)
				}
				if err := viaAdd.Add(sk.Compact()); err != nil {
					t.Fatal(err)
				}
				if err := sk.AddTo(inPlace); err != nil {
					t.Fatal(err)
				}
				if err := sk.AddTo(foreign); err != nil {
					t.Fatal(err)
				}
				want := marshal(t, viaAdd.Result())
				if got := marshal(t, inPlace.Result()); !bytes.Equal(got, want) {
					t.Errorf("kmv=%v, %d items, prior %d: AddTo differs from Add(Compact())", kmv, n, pi)
				}
				if got := marshal(t, foreign.Result()); !bytes.Equal(got, want) {
					t.Errorf("kmv=%v, %d items, prior %d: AddTo into a foreign aggregator differs", kmv, n, pi)
				}
			}
			other := NewEngine(ConcurrentConfig{K: 64, Seed: 99})
			if err := sk.AddTo(other.NewAggregator()); !errors.Is(err, ErrSeedMismatch) {
				t.Errorf("kmv=%v, %d items: AddTo across seeds returned %v", kmv, n, err)
			}
			sk.Close()
		}
	}
}

// TestAddToSkipIsExact: core's eager phase (UpdateDirect) lowers the
// global's low too, over QuickSelect and over KMV. Twenty standalone
// sketches, each still in its eager phase, are read in place into one
// union — skipping every sketch whose low is at or above the union's
// bound — and into another as compacts: the bytes agree, and the union
// is not empty. (The table's TestRollupSkipIsExact covers the flat,
// merge and absorb paths.)
func TestAddToSkipIsExact(t *testing.T) {
	for _, kmv := range []bool{false, true} {
		inPlace, viaAdd := NewUnion(16), NewUnion(16)
		var scratch []uint64
		for i := uint64(0); i < 20; i++ {
			c := NewConcurrent(ConcurrentConfig{K: 16, Writers: 1, MaxError: 0.2, UseKMV: kmv}) // eager limit 50
			w := c.Writer(0)
			for j := uint64(0); j < 40; j++ {
				w.UpdateUint64(i<<32 | j)
			}
			scratch = c.global.appendTo(scratch[:0], inPlace)
			inPlace.insert(scratch, false)
			if err := viaAdd.Add(c.Compact()); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
		want := viaAdd.Result()
		if want.Retained() == 0 {
			t.Fatalf("kmv=%v: empty union", kmv)
		}
		if got := marshal(t, inPlace.Result()); !bytes.Equal(got, marshal(t, want)) {
			t.Errorf("kmv=%v: reading eager sketches in place differs from adding their compacts", kmv)
		}
	}
}
