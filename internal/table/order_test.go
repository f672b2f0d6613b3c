package table

import (
	"bytes"
	"sync"
	"testing"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/theta"
)

// recordingEngine is the Θ engine with every compact its sketches hand
// out kept, so a test can look at what a whole-table read did to the
// per-key compacts it made and dropped.
type recordingEngine struct {
	*theta.Engine
	mu   sync.Mutex
	seen []*theta.Compact
}

type recordingSketch struct {
	core.EngineSketch[uint64, float64, *theta.Compact]
	rec *recordingEngine
}

func (r *recordingEngine) NewSketch(pool *core.PropagatorPool) core.EngineSketch[uint64, float64, *theta.Compact] {
	return recordingSketch{r.Engine.NewSketch(pool), r}
}

func (s recordingSketch) Compact() *theta.Compact {
	c := s.EngineSketch.Compact()
	s.rec.mu.Lock()
	s.rec.seen = append(s.rec.seen, c)
	s.rec.mu.Unlock()
	return c
}

// orderTestTable holds 60 keys in every state a Θ key has: flat (a few
// items), concurrent in exact mode, concurrent in estimation mode.
func orderTestTable(t *testing.T) (*Table[uint64, uint64, float64, *theta.Compact], *recordingEngine) {
	t.Helper()
	tcfg, eng := ThetaConfig[uint64]{
		Table: Config[uint64]{Writers: 1, Shards: 8},
		K:     64, MaxError: 0.2, // eager limit 2/e² = 50
	}.Engine()
	rec := &recordingEngine{Engine: eng}
	tab := New[uint64](tcfg, core.Engine[uint64, float64, *theta.Compact](rec))
	w := tab.Writer(0)
	for key := uint64(0); key < 60; key++ {
		n := []uint64{10, 60, 2000}[key%3]
		for i := uint64(0); i < n; i++ {
			w.UpdateKeyed(key, key<<32|i)
		}
	}
	tab.Drain()
	if flat := int64(tab.Keys()) - tab.Pool().Sketches(); flat != 20 {
		t.Fatalf("%d flat keys, want 20", flat)
	}
	return tab, rec
}

// TestRollupLeavesPerKeyCompactsUnordered: a rollup reads every key in
// place (EngineSketch.AddTo), at any read degree — it asks no key for a
// compact, so no per-key copy, and no sort of one, hides in the path.
func TestRollupLeavesPerKeyCompactsUnordered(t *testing.T) {
	tab, rec := orderTestTable(t)
	defer tab.Close()
	for _, degree := range []int{1, 4} {
		rec.seen = rec.seen[:0]
		if r := tab.rollup(degree).Retained(); r < 64 {
			t.Fatalf("degree %d: rollup holds %d samples, want at least K", degree, r)
		}
		if len(rec.seen) != 0 {
			t.Fatalf("degree %d: rollup compacted %d of %d keys", degree, len(rec.seen), tab.Keys())
		}
	}
}

// TestRollupOrderedInputsMatchUnordered: the same keys rolled up from
// the live table (compacts as collected) and from its parsed snapshot
// (ordered compacts: the union stops early on each) are the same
// sketch, byte for byte.
func TestRollupOrderedInputsMatchUnordered(t *testing.T) {
	tab, rec := orderTestTable(t)
	defer tab.Close()
	live, err := rec.MarshalCompact(tab.Rollup())
	if err != nil {
		t.Fatal(err)
	}
	data, err := tab.SnapshotBinary()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalThetaSnapshot[uint64](data)
	if err != nil {
		t.Fatal(err)
	}
	agg := rec.NewAggregator()
	snap.ForEach(func(_ uint64, c *theta.Compact) {
		if !c.IsOrdered() {
			t.Fatal("parsed compact is not ordered")
		}
		_ = agg.Add(c)
	})
	parsed, err := rec.MarshalCompact(agg.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, parsed) {
		t.Fatal("rollup of ordered compacts differs from the rollup of the same keys unordered")
	}
}
