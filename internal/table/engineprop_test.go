package table

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/hll"
	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/theta"
)

// These property tests pin the generic engine's snapshot round trip:
// splitting a stream across sketches, compacting each ("evicting"),
// serializing, unmarshalling and merging must answer like one sketch
// that ingested the whole stream directly. Every trial is seeded, so
// failures reproduce.

// evictMergeRoundTrip ingests each stream into its own engine sketch,
// compacts and serializes it (the evict-spill shape), parses the blobs
// back and merges them; direct ingests the concatenation into one
// sketch. Both compacts are returned for family-specific comparison.
func evictMergeRoundTrip[V, S, C any](t *testing.T, eng core.Engine[V, S, C], streams [][]V) (merged, direct C) {
	t.Helper()
	pool := core.NewPropagatorPool(2)
	defer pool.Close()

	var blobs [][]byte
	for _, st := range streams {
		sk := eng.NewSketch(pool)
		sk.UpdateBatch(0, st)
		sk.Flush(0)
		blob, err := eng.MarshalCompact(sk.Compact())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		sk.Close()
		blobs = append(blobs, blob)
	}
	agg := eng.NewAggregator()
	for _, b := range blobs {
		c, err := eng.UnmarshalCompact(b)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if err := agg.Add(c); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	merged = agg.Result()

	dsk := eng.NewSketch(pool)
	for _, st := range streams {
		dsk.UpdateBatch(0, st)
	}
	dsk.Flush(0)
	direct = dsk.Compact()
	dsk.Close()
	return merged, direct
}

// splitStream cuts a stream into 1..4 random contiguous parts.
func splitStream[V any](rng *rand.Rand, vs []V) [][]V {
	parts := 1 + rng.Intn(4)
	var out [][]V
	rest := vs
	for i := parts; i > 1 && len(rest) > 0; i-- {
		n := rng.Intn(len(rest) + 1)
		out = append(out, rest[:n])
		rest = rest[n:]
	}
	out = append(out, rest)
	return out
}

// TestEnginePropertyTheta: exact-mode Θ — the merged sample set equals
// the direct one, so estimates match exactly.
func TestEnginePropertyTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfcd5))
	for trial := 0; trial < 20; trial++ {
		eng := theta.NewEngine(theta.ConcurrentConfig{K: 2048, Writers: 1, MaxError: 1})
		n := 1 + rng.Intn(800) // < K: exact mode
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = rng.Uint64()
		}
		merged, direct := evictMergeRoundTrip[uint64, float64, *theta.Compact](t, eng, splitStream(rng, vs))
		if em, ed := merged.Estimate(), direct.Estimate(); em != ed {
			t.Fatalf("trial %d: merged estimate %v != direct %v (n=%d)", trial, em, ed, n)
		}
		if merged.Retained() != direct.Retained() {
			t.Fatalf("trial %d: merged retained %d != direct %d", trial, merged.Retained(), direct.Retained())
		}
	}
}

// TestEnginePropertyHLL: register-wise max is split-invariant, so the
// merged and direct register sets give identical estimates at any
// stream size.
func TestEnginePropertyHLL(t *testing.T) {
	rng := rand.New(rand.NewSource(0x477))
	for trial := 0; trial < 20; trial++ {
		eng := hll.NewEngine(hll.ConcurrentConfig{Precision: 10, Writers: 1})
		n := 1 + rng.Intn(20000)
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = rng.Uint64()
		}
		merged, direct := evictMergeRoundTrip[uint64, float64, *hll.Sketch](t, eng, splitStream(rng, vs))
		if em, ed := merged.Estimate(), direct.Estimate(); em != ed {
			t.Fatalf("trial %d: merged estimate %v != direct %v (n=%d)", trial, em, ed, n)
		}
	}
}

// TestEnginePropertyQuantiles: merge order may differ from direct
// ingest (compaction coins), so equality is statistical: every
// φ-quantile of the merged sketch must sit within the a-priori rank
// error (with slack for the extra merge level) of the true rank.
func TestEnginePropertyQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9a41))
	const k = 128
	eps := 4 * quantiles.NormalizedRankError(k)
	for trial := 0; trial < 10; trial++ {
		eng := quantiles.NewEngine(quantiles.ConcurrentConfig{K: k, Writers: 1})
		n := 1000 + rng.Intn(20000)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i) // true φ-quantile is φ·n
		}
		rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		merged, _ := evictMergeRoundTrip[float64, *quantiles.Snapshot, *quantiles.Sketch](t, eng, splitStream(rng, vs))
		if got, want := merged.N(), uint64(n); got != want {
			t.Fatalf("trial %d: merged N = %d, want %d", trial, got, want)
		}
		for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
			got := merged.Quantile(phi)
			if dev := math.Abs(got/float64(n) - phi); dev > eps {
				t.Fatalf("trial %d: merged q(%v) = %v of n=%d (rank dev %.4f > %.4f)",
					trial, phi, got, n, dev, eps)
			}
		}
	}
}

// TestEngineSketchReset: Reset restores the empty state — a sketch
// that ingested garbage, Reset, then ingested the real stream must
// answer exactly like a fresh sketch, for every family.
func TestEngineSketchReset(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(0x7e5e7))

	junkU := make([]uint64, 500)
	valsU := make([]uint64, 700)
	for i := range junkU {
		junkU[i] = rng.Uint64()
	}
	for i := range valsU {
		valsU[i] = rng.Uint64()
	}

	runReset := func(name string, got, want float64) {
		if got != want {
			t.Errorf("%s: reset sketch = %v, fresh sketch = %v", name, got, want)
		}
	}

	{
		eng := theta.NewEngine(theta.ConcurrentConfig{K: 2048, Writers: 2, MaxError: 1})
		sk := eng.NewSketch(pool)
		sk.UpdateBatch(0, junkU)
		sk.UpdateBatch(1, junkU[:100])
		sk.Flush(0)
		sk.Reset()
		sk.UpdateBatch(0, valsU)
		sk.Flush(0)
		fresh := eng.NewSketch(pool)
		fresh.UpdateBatch(0, valsU)
		fresh.Flush(0)
		runReset("theta", sk.Query(), fresh.Query())
		sk.Close()
		fresh.Close()
	}
	{
		eng := hll.NewEngine(hll.ConcurrentConfig{Precision: 10, Writers: 2})
		sk := eng.NewSketch(pool)
		sk.UpdateBatch(0, junkU)
		sk.Flush(0)
		sk.Reset()
		sk.UpdateBatch(0, valsU)
		sk.Flush(0)
		fresh := eng.NewSketch(pool)
		fresh.UpdateBatch(0, valsU)
		fresh.Flush(0)
		runReset("hll", sk.Query(), fresh.Query())
		sk.Close()
		fresh.Close()
	}
	{
		qeng := quantiles.NewEngine(quantiles.ConcurrentConfig{K: 64, Writers: 2})
		sk := qeng.NewSketch(pool)
		sk.UpdateBatch(0, []float64{1e9, -1e9, 42})
		sk.Flush(0)
		sk.Reset()
		vals := make([]float64, 5000)
		for i := range vals {
			vals[i] = float64(i)
		}
		sk.UpdateBatch(0, vals)
		sk.Flush(0)
		snap := sk.Query()
		if snap.N() != 5000 {
			t.Errorf("quantiles reset: N = %d, want 5000 (junk forgotten)", snap.N())
		}
		if min, max := snap.Min(), snap.Max(); min != 0 || max != 4999 {
			t.Errorf("quantiles reset: range [%v, %v], want [0, 4999]", min, max)
		}
		sk.Close()
	}
}

// TestEnginePropertyEvictionSpill runs the round trip through the real
// table eviction path: keys TTL-evicted from two tables spill
// serialized compacts via OnEvict; parsing and merging the spills must
// reproduce the per-key direct-ingest estimates exactly.
func TestEnginePropertyEvictionSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(0x591))
	const keys = 8
	perKey := make(map[string][]uint64)
	spills := make(map[string][][]byte)

	_, eng := ThetaConfig[string]{K: 1024, MaxError: 1}.Engine()
	for node := 0; node < 2; node++ {
		now := time.Now().UnixNano()
		tab := NewTheta(ThetaConfig[string]{
			Table: Config[string]{
				Writers: 1, Shards: 4, TTL: time.Hour,
				OnEvict: func(k string, snap []byte) {
					if snap == nil {
						t.Errorf("nil spill for key %q", k)
						return
					}
					spills[k] = append(spills[k], snap)
				},
			},
			K: 1024, MaxError: 1,
		})
		tab.now = func() int64 { return now }
		w := tab.Writer(0)
		for ki := 0; ki < keys; ki++ {
			key := fmt.Sprintf("k%d", ki)
			n := 1 + rng.Intn(300)
			vals := make([]uint64, n)
			ks := make([]string, n)
			for i := range vals {
				vals[i] = rng.Uint64()
				ks[i] = key
			}
			perKey[key] = append(perKey[key], vals...)
			w.UpdateKeyedBatch(ks, vals)
		}
		now += (2 * time.Hour).Nanoseconds()
		if got := tab.EvictExpired(); got != keys {
			t.Fatalf("node %d evicted %d keys, want %d", node, got, keys)
		}
		tab.Close()
	}

	for key, vals := range perKey {
		agg := eng.NewAggregator()
		for _, blob := range spills[key] {
			c, err := eng.UnmarshalCompact(blob)
			if err != nil {
				t.Fatalf("key %q: unmarshal spill: %v", key, err)
			}
			if err := agg.Add(c); err != nil {
				t.Fatalf("key %q: merge spill: %v", key, err)
			}
		}
		direct := theta.NewQuickSelectSeeded(1024, eng.Seed())
		for _, v := range vals {
			direct.UpdateUint64(v)
		}
		if got, want := agg.Result().Estimate(), direct.Estimate(); got != want {
			t.Fatalf("key %q: merged spills = %v, direct = %v", key, got, want)
		}
	}
}
