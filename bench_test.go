// Benchmarks regenerating the paper's evaluation, one per table/figure
// (the full parameterised sweeps are `fcds-bench figure1` and its
// siblings in cmd/fcds-bench; these are the `go test -bench` entry
// points with fixed representative parameters).
//
// Reading results: throughput figures (1, 6, 7) report ns per update —
// the paper's Mops/s is 1000/(ns/op). Figure 8 and Table 2 compare
// pairs of benchmarks. Table 1 benchmarks the two analysis engines.
package fcds_test

import (
	"sync"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/adversary"
	"github.com/fcds/fcds/internal/characterization"
	"github.com/fcds/fcds/internal/lockbased"
	"github.com/fcds/fcds/internal/stream"
	"github.com/fcds/fcds/internal/theta"
)

// --- Figure 1: update-only scalability, b=1, k=4096 ---------------------

func benchConcurrentThetaUpdates(b *testing.B, writers, bufSize int, maxErr float64) {
	c := theta.NewConcurrent(theta.ConcurrentConfig{
		K: 4096, Writers: writers, MaxError: maxErr, BufferSize: bufSize,
	})
	defer c.Close()
	parts := stream.Partition(uint64(b.N), writers)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p stream.Range) {
			defer wg.Done()
			w := c.Writer(i)
			for v := p.Start; v < p.Start+p.Count; v++ {
				w.UpdateUint64(v)
			}
			w.Flush()
		}(i, p)
	}
	wg.Wait()
}

func benchLockThetaUpdates(b *testing.B, threads int) {
	s := lockbased.NewTheta(4096)
	parts := stream.Partition(uint64(b.N), threads)
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(p stream.Range) {
			defer wg.Done()
			for v := p.Start; v < p.Start+p.Count; v++ {
				s.UpdateUint64(v)
			}
		}(p)
	}
	wg.Wait()
}

func BenchmarkFigure1_Concurrent_1w(b *testing.B) { benchConcurrentThetaUpdates(b, 1, 1, 1) }
func BenchmarkFigure1_Concurrent_2w(b *testing.B) { benchConcurrentThetaUpdates(b, 2, 1, 1) }
func BenchmarkFigure1_Concurrent_4w(b *testing.B) { benchConcurrentThetaUpdates(b, 4, 1, 1) }
func BenchmarkFigure1_LockBased_1t(b *testing.B)  { benchLockThetaUpdates(b, 1) }
func BenchmarkFigure1_LockBased_2t(b *testing.B)  { benchLockThetaUpdates(b, 2) }
func BenchmarkFigure1_LockBased_4t(b *testing.B)  { benchLockThetaUpdates(b, 4) }

// --- Batch vs item ingestion ---------------------------------------------
//
// The batch pipeline's claim: amortising the eager check, hint load and
// counter arithmetic — and pre-filtering in the same pass that hashes —
// beats per-item Update by >= 1.5x at 4 writers. Both sides use the
// same sketch configuration so only the ingestion path differs.

func benchConcurrentThetaBatchUpdates(b *testing.B, writers, bufSize int, maxErr float64, chunk int) {
	c := theta.NewConcurrent(theta.ConcurrentConfig{
		K: 4096, Writers: writers, MaxError: maxErr, BufferSize: bufSize,
	})
	defer c.Close()
	parts := stream.Partition(uint64(b.N), writers)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p stream.Range) {
			defer wg.Done()
			w := c.Writer(i)
			buf := make([]uint64, 0, chunk)
			for v := p.Start; v < p.Start+p.Count; v++ {
				buf = append(buf, v)
				if len(buf) == chunk {
					w.UpdateUint64Batch(buf)
					buf = buf[:0]
				}
			}
			w.UpdateUint64Batch(buf)
			w.Flush()
		}(i, p)
	}
	wg.Wait()
}

func BenchmarkBatch_vs_Item(b *testing.B) {
	const bufSize = 64
	b.Run("item/4w", func(b *testing.B) { benchConcurrentThetaUpdates(b, 4, bufSize, 1) })
	b.Run("batch64/4w", func(b *testing.B) { benchConcurrentThetaBatchUpdates(b, 4, bufSize, 1, 64) })
	b.Run("batch256/4w", func(b *testing.B) { benchConcurrentThetaBatchUpdates(b, 4, bufSize, 1, 256) })
	b.Run("batch4096/4w", func(b *testing.B) { benchConcurrentThetaBatchUpdates(b, 4, bufSize, 1, 4096) })
	b.Run("item/1w", func(b *testing.B) { benchConcurrentThetaUpdates(b, 1, bufSize, 1) })
	b.Run("batch256/1w", func(b *testing.B) { benchConcurrentThetaBatchUpdates(b, 1, bufSize, 1, 256) })
}

// String ingestion: the batch path must be allocation-free (the item
// path's figure documents whatever the per-call overhead is).
func BenchmarkBatchString(b *testing.B) {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = "user-" + string(rune('a'+i%26)) + "-0123456789abcdef"[:8+i%8]
	}
	b.Run("item", func(b *testing.B) {
		c := theta.NewConcurrent(theta.ConcurrentConfig{K: 4096, Writers: 1, MaxError: 1, BufferSize: 64})
		defer c.Close()
		w := c.Writer(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.UpdateString(keys[i%len(keys)])
		}
	})
	b.Run("batch256", func(b *testing.B) {
		c := theta.NewConcurrent(theta.ConcurrentConfig{K: 4096, Writers: 1, MaxError: 1, BufferSize: 64})
		defer c.Close()
		w := c.Writer(0)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += len(keys) {
			batch := keys
			if rem := b.N - n; rem < len(batch) {
				batch = batch[:rem] // process exactly b.N items
			}
			w.UpdateStringBatch(batch)
		}
	})
}

// --- Figure 5: accuracy pitchfork trials (cost per trial) ----------------

func BenchmarkFigure5a_AccuracyTrial_NoEager(b *testing.B) {
	r := &characterization.ConcurrentThetaAccuracy{K: 4096, MaxError: 1.0}
	for i := 0; i < b.N; i++ {
		_ = r.Estimate(1<<14, i)
	}
}

func BenchmarkFigure5b_AccuracyTrial_Eager(b *testing.B) {
	r := &characterization.ConcurrentThetaAccuracy{K: 4096, MaxError: 0.04}
	for i := 0; i < b.N; i++ {
		_ = r.Estimate(1<<14, i)
	}
}

// --- Figure 6: write-only workload, e=0.04 -------------------------------

func BenchmarkFigure6_Concurrent_1w(b *testing.B) { benchConcurrentThetaUpdates(b, 1, 0, 0.04) }
func BenchmarkFigure6_Concurrent_4w(b *testing.B) { benchConcurrentThetaUpdates(b, 4, 0, 0.04) }
func BenchmarkFigure6_LockBased_1t(b *testing.B)  { benchLockThetaUpdates(b, 1) }

// --- Figure 7: mixed workload with background readers --------------------

func benchMixed(b *testing.B, concurrent bool, writers int) {
	r := characterization.NewMixedThetaRunner(concurrent, 4096, writers, 10, time.Millisecond, 0.04)
	b.ResetTimer()
	d := r.Run(uint64(b.N))
	b.StopTimer()
	// The runner reports its own wall time for b.N updates; the default
	// ns/op would also charge sketch construction and reader teardown,
	// so report the ingestion-only figure explicitly.
	b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ingest-ns/op")
}

func BenchmarkFigure7_Mixed_Concurrent_1w(b *testing.B) { benchMixed(b, true, 1) }
func BenchmarkFigure7_Mixed_Concurrent_2w(b *testing.B) { benchMixed(b, true, 2) }
func BenchmarkFigure7_Mixed_LockBased_1w(b *testing.B)  { benchMixed(b, false, 1) }
func BenchmarkFigure7_Mixed_LockBased_2w(b *testing.B)  { benchMixed(b, false, 2) }

// --- Figure 8: eager vs no-eager on a small stream -----------------------

func benchSmallStream(b *testing.B, maxErr float64) {
	const n = 1024 // small stream: the regime Figure 8 targets
	for i := 0; i < b.N; i++ {
		c := theta.NewConcurrent(theta.ConcurrentConfig{
			K: 4096, Writers: 1, MaxError: maxErr,
		})
		w := c.Writer(0)
		for v := uint64(0); v < n; v++ {
			w.UpdateUint64(v)
		}
		w.Flush()
		c.Close()
	}
}

func BenchmarkFigure8_SmallStream_Eager(b *testing.B)   { benchSmallStream(b, 0.04) }
func BenchmarkFigure8_SmallStream_NoEager(b *testing.B) { benchSmallStream(b, 1.0) }

// --- Table 1: error-analysis engines --------------------------------------

func BenchmarkTable1_StrongAdversary_MonteCarlo100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adversary.StrongMonteCarlo(adversary.Table1Defaults, 100000, uint64(i)+1)
	}
}

func BenchmarkTable1_StrongAdversary_Numerical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adversary.StrongNumerical(adversary.Table1Defaults, 600)
	}
}

// --- Table 2: single-writer throughput across k ---------------------------

func BenchmarkTable2_Concurrent_k256(b *testing.B)  { benchTable2(b, 256) }
func BenchmarkTable2_Concurrent_k1024(b *testing.B) { benchTable2(b, 1024) }
func BenchmarkTable2_Concurrent_k4096(b *testing.B) { benchTable2(b, 4096) }

func benchTable2(b *testing.B, k int) {
	c := theta.NewConcurrent(theta.ConcurrentConfig{K: k, Writers: 1, MaxError: 0.04})
	defer c.Close()
	w := c.Writer(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.UpdateUint64(uint64(i))
	}
}

// --- §6.2: quantiles relaxation attack ------------------------------------

func BenchmarkQuantilesError_Attack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adversary.AttackQuantiles(128, 10000, 100, 0.5, 1, uint64(i))
	}
}

// --- Ablations: the design choices DESIGN.md calls out --------------------

func benchAblation(b *testing.B, cfg theta.ConcurrentConfig) {
	cfg.K = 4096
	cfg.Writers = 1
	cfg.EagerLimit = -1
	c := theta.NewConcurrent(cfg)
	defer c.Close()
	w := c.Writer(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.UpdateUint64(uint64(i))
	}
}

// Hint pre-filtering on vs off (§5.2: "instrumental for performance").
func BenchmarkAblation_Filtering_On(b *testing.B) {
	benchAblation(b, theta.ConcurrentConfig{MaxError: 1, BufferSize: 16})
}
func BenchmarkAblation_Filtering_Off(b *testing.B) {
	benchAblation(b, theta.ConcurrentConfig{MaxError: 1, BufferSize: 16, DisableFiltering: true})
}

// Double buffering (OptParSketch) vs single buffer (ParSketch).
func BenchmarkAblation_DoubleBuffering_Opt(b *testing.B) {
	benchAblation(b, theta.ConcurrentConfig{MaxError: 1, BufferSize: 16})
}
func BenchmarkAblation_DoubleBuffering_ParSketch(b *testing.B) {
	benchAblation(b, theta.ConcurrentConfig{MaxError: 1, BufferSize: 16, DisableDoubleBuffering: true})
}

// §8 extension: adaptive local buffers vs fixed b.
func BenchmarkAblation_AdaptiveBuffer_On(b *testing.B) {
	benchAblation(b, theta.ConcurrentConfig{MaxError: 0.04, BufferSize: 2, AdaptiveBuffering: true})
}
func BenchmarkAblation_AdaptiveBuffer_Off(b *testing.B) {
	benchAblation(b, theta.ConcurrentConfig{MaxError: 0.04, BufferSize: 2})
}

// Global sketch family: QuickSelect (evaluation) vs KMV (Algorithm 1).
func BenchmarkAblation_Global_QuickSelect(b *testing.B) {
	benchAblation(b, theta.ConcurrentConfig{MaxError: 0.04})
}
func BenchmarkAblation_Global_KMV(b *testing.B) {
	benchAblation(b, theta.ConcurrentConfig{MaxError: 0.04, UseKMV: true})
}
