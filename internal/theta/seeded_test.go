package theta

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fcds/fcds/internal/core"
)

// compactOfStream ingests n seeded distinct items into a fresh engine
// sketch and returns its compact.
func compactOfStream(eng *Engine, pool *core.PropagatorPool, rng *rand.Rand, n int) *Compact {
	sk := eng.NewSketch(pool)
	defer sk.Close()
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = rng.Uint64()
	}
	sk.UpdateBatch(0, vs)
	sk.Flush(0)
	return sk.Compact()
}

// TestSeededEstimateErrorBound: a sketch seeded (NewConcurrentFrom, as
// a flat key materializes) with a compact that holds a threshold θ₀ and no samples is a
// fixed-threshold estimator of its own stream — unbiased, within normal
// KMV error — both when the new stream matches the size of the one
// that earned θ₀ (loosened 8×) and when it is 8× smaller.
func TestSeededEstimateErrorBound(t *testing.T) {
	pool := core.NewPropagatorPool(1)
	defer pool.Close()
	const k, loosen = 2048, 8
	cfg := ConcurrentConfig{K: k, Writers: 1, MaxError: 1, EagerLimit: -1, Pool: pool}
	eng := NewEngine(cfg)
	rng := rand.New(rand.NewSource(0x5eed))

	prev := compactOfStream(eng, pool, rng, 100000)
	from := newCompactFromUnsorted(nil, prev.Theta()*loosen, prev.Seed())

	// ~4.5 standard errors of the plain KMV RSE 1/sqrt(k-2): far past
	// any flakiness for a fixed seed, tight enough to catch a biased
	// seeded estimator (a wrong θ accounting shows up as a bias of the
	// loosening factor, not percent-level noise).
	tol := 4.5 / math.Sqrt(k-2)
	for _, n := range []int{100000, 100000 / loosen} {
		c, err := NewConcurrentFrom(cfg, from)
		if err != nil {
			t.Fatal(err)
		}
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = rng.Uint64()
		}
		w := c.Writer(0)
		w.UpdateUint64Batch(vs)
		w.Flush()
		got := c.Estimate()
		if relErr := math.Abs(got-float64(n)) / float64(n); relErr > tol {
			t.Fatalf("seeded sketch over %d items estimates %.0f (rel err %.3f > %.3f)", n, got, relErr, tol)
		}
		c.Close()
	}
}
