package hll

import (
	"math"
	"sync"
	"testing"
)

func TestConcurrentHLLSingleWriter(t *testing.T) {
	c := NewConcurrent(ConcurrentConfig{Precision: 12, Writers: 1})
	defer c.Close()
	w := c.Writer(0)
	const n = 100000
	for i := uint64(0); i < n; i++ {
		w.UpdateUint64(i)
	}
	w.Flush()
	if re := math.Abs(c.Estimate()-n) / n; re > 0.1 {
		t.Errorf("relative error %v (est=%v)", re, c.Estimate())
	}
}

func TestConcurrentHLLMultiWriter(t *testing.T) {
	const writers, per = 4, 50000
	c := NewConcurrent(ConcurrentConfig{Precision: 12, Writers: writers})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := c.Writer(i)
			for j := 0; j < per; j++ {
				w.UpdateUint64(uint64(i*per + j))
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
	n := float64(writers * per)
	if re := math.Abs(c.Estimate()-n) / n; re > 0.1 {
		t.Errorf("relative error %v (est=%v)", re, c.Estimate())
	}
}

func TestConcurrentHLLEagerSmallStream(t *testing.T) {
	c := NewConcurrent(ConcurrentConfig{Precision: 12, Writers: 1, EagerLimit: 500})
	defer c.Close()
	w := c.Writer(0)
	for i := uint64(0); i < 400; i++ {
		w.UpdateUint64(i)
	}
	// Eager phase: estimate reflects all updates immediately; linear
	// counting makes small counts near-exact.
	if est := c.Estimate(); math.Abs(est-400) > 20 {
		t.Errorf("eager estimate = %v, want ~400", est)
	}
}

func TestConcurrentHLLOverlappingWriters(t *testing.T) {
	// All writers ingest the same values: the estimate must reflect the
	// union (register max), not the sum.
	const writers = 4
	c := NewConcurrent(ConcurrentConfig{Precision: 12, Writers: writers})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := c.Writer(i)
			for j := uint64(0); j < 30000; j++ {
				w.UpdateUint64(j) // identical streams
			}
			w.Flush()
		}(i)
	}
	wg.Wait()
	if re := math.Abs(c.Estimate()-30000) / 30000; re > 0.1 {
		t.Errorf("estimate %v for 30000 uniques ingested 4x", c.Estimate())
	}
}

func BenchmarkConcurrentHLLUpdate(b *testing.B) {
	c := NewConcurrent(ConcurrentConfig{Precision: 12, Writers: 1, EagerLimit: -1})
	defer c.Close()
	w := c.Writer(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.UpdateUint64(uint64(i))
	}
}
