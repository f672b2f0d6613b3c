package quantiles

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestConcurrentQuantilesSingleWriter(t *testing.T) {
	c := NewConcurrent(ConcurrentConfig{K: 128, Writers: 1})
	defer c.Close()
	w := c.Writer(0)
	const n = 100000
	for i := 0; i < n; i++ {
		w.Update(float64(i))
	}
	w.Flush()
	eps := NormalizedRankError(128)
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		got := c.Quantile(phi)
		if math.Abs(got/n-phi) > 3*eps {
			t.Errorf("phi=%v: value %v (rank %v)", phi, got, got/n)
		}
	}
}

func TestConcurrentQuantilesMultiWriter(t *testing.T) {
	const writers, per = 4, 50000
	c := NewConcurrent(ConcurrentConfig{K: 128, Writers: writers})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := c.Writer(i)
			// Interleaved ranges so each writer sees the full value
			// distribution.
			for j := 0; j < per; j++ {
				w.Update(float64(j*writers + i))
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
	n := float64(writers * per * writers) // values span 0..writers*per*writers
	_ = n
	total := float64(writers * per)
	snap := c.Snapshot()
	if snap.N() != uint64(total) {
		t.Fatalf("snapshot N = %d, want %v", snap.N(), total)
	}
	eps := NormalizedRankError(128)
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		v := snap.Quantile(phi)
		// Values are 0..writers*per*writers-ish uniform; true rank of v
		// is v / (writers*per*writers... actually max value is
		// (per-1)*writers + writers-1 = per*writers - 1.
		trueRank := v / total
		if math.Abs(trueRank-phi) > 4*eps {
			t.Errorf("phi=%v: rank %v", phi, trueRank)
		}
	}
}

func TestConcurrentQuantilesRelaxation(t *testing.T) {
	// Updates not yet propagated may be missed, but never more than
	// r = 2Nb (checked via snapshot N after quiescing).
	const writers, per, b = 2, 10000, 64
	c := NewConcurrent(ConcurrentConfig{K: 64, Writers: writers, BufferSize: b, EagerLimit: -1})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := c.Writer(i)
			for j := 0; j < per; j++ {
				w.Update(float64(j))
			}
			// no flush
		}(i)
	}
	wg.Wait()
	prev := int64(-1)
	for i := 0; i < 500; i++ {
		cur := c.Propagations()
		if cur == prev {
			break
		}
		prev = cur
		time.Sleep(2 * time.Millisecond)
	}
	got := c.Snapshot().N()
	total := uint64(writers * per)
	r := uint64(c.Relaxation())
	if got > total {
		t.Errorf("snapshot N %d exceeds total %d", got, total)
	}
	if got < total-r {
		t.Errorf("snapshot N %d misses more than r=%d of %d", got, r, total)
	}
}

func TestConcurrentQuantilesEagerPhaseExact(t *testing.T) {
	c := NewConcurrent(ConcurrentConfig{K: 128, Writers: 1, EagerLimit: 200})
	defer c.Close()
	w := c.Writer(0)
	for i := 1; i <= 200; i++ {
		w.Update(float64(i))
		snap := c.Snapshot()
		if snap.N() != uint64(i) {
			t.Fatalf("eager phase: snapshot N = %d after %d updates", snap.N(), i)
		}
	}
	// Below 2k items the snapshot is exact.
	if med := c.Quantile(0.5); med != 100 {
		t.Errorf("eager median = %v, want 100", med)
	}
}

func TestConcurrentQuantilesSnapshotStability(t *testing.T) {
	c := NewConcurrent(ConcurrentConfig{K: 64, Writers: 1})
	defer c.Close()
	w := c.Writer(0)
	for i := 0; i < 10000; i++ {
		w.Update(float64(i))
	}
	w.Flush()
	snap := c.Snapshot()
	n0 := snap.N()
	med0 := snap.Quantile(0.5)
	for i := 0; i < 50000; i++ {
		w.Update(float64(i))
	}
	w.Flush()
	if snap.N() != n0 || snap.Quantile(0.5) != med0 {
		t.Error("published snapshot mutated by later updates")
	}
	// A fresh snapshot must observe the new data.
	if c.Snapshot().N() <= n0 {
		t.Error("new snapshot did not advance")
	}
}

func TestConcurrentQuantilesLiveReads(t *testing.T) {
	c := NewConcurrent(ConcurrentConfig{K: 128, Writers: 2})
	defer c.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := c.Writer(i)
			for j := 0; j < 100000; j++ {
				w.Update(float64(j % 1000))
			}
			w.Flush()
		}(i)
	}
	go func() {
		wg.Wait()
		close(stop)
	}()
	var prevN uint64
	for {
		select {
		case <-stop:
			return
		default:
		}
		snap := c.Snapshot()
		if snap.N() < prevN {
			t.Fatalf("snapshot N regressed %d -> %d", prevN, snap.N())
		}
		prevN = snap.N()
		if snap.N() > 0 {
			med := snap.Quantile(0.5)
			if med < 0 || med > 1000 {
				t.Fatalf("median %v outside data range", med)
			}
		}
		time.Sleep(time.Millisecond)
	}
}

func BenchmarkConcurrentQuantilesUpdate(b *testing.B) {
	c := NewConcurrent(ConcurrentConfig{K: 128, Writers: 1, EagerLimit: -1})
	defer c.Close()
	w := c.Writer(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Update(float64(i))
	}
}
