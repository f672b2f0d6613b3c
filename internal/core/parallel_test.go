package core

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestFanOutCoversEveryIndexOnce(t *testing.T) {
	for _, degree := range []int{0, 1, 2, 4, 7, 64} {
		for _, n := range []int{0, 1, 2, 3, 100, 1001, 20011} { // the last two: runs of several indices, a short last run
			hits := make([]atomic.Int32, n)
			maxWorker := int32(-1)
			var maxMu atomic.Int32
			maxMu.Store(-1)
			FanOut(degree, n, func(worker, index int) {
				hits[index].Add(1)
				for {
					cur := maxMu.Load()
					if int32(worker) <= cur || maxMu.CompareAndSwap(cur, int32(worker)) {
						break
					}
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("degree=%d n=%d: index %d visited %d times", degree, n, i, got)
				}
			}
			maxWorker = maxMu.Load()
			limit := degree
			if limit < 1 {
				limit = 1
			}
			if limit > n {
				limit = n
			}
			if n > 0 && maxWorker >= int32(limit) {
				t.Fatalf("degree=%d n=%d: worker id %d outside [0,%d)", degree, n, maxWorker, limit)
			}
		}
	}
}

func TestFanOutWorkerSlotsAreExclusive(t *testing.T) {
	// Per-worker accumulators indexed by the worker id must never be
	// shared between concurrent invocations — the whole read path
	// relies on it. Detect overlap with an in-use flag per slot.
	const degree, n = 8, 10000
	inUse := make([]atomic.Bool, degree)
	sums := make([]int, degree)
	FanOut(degree, n, func(worker, index int) {
		if !inUse[worker].CompareAndSwap(false, true) {
			t.Errorf("worker slot %d entered concurrently", worker)
		}
		sums[worker] += index
		inUse[worker].Store(false)
	})
	total := 0
	for _, s := range sums {
		total += s
	}
	if want := n * (n - 1) / 2; total != want {
		t.Fatalf("per-worker sums total %d, want %d", total, want)
	}
}

func TestReadDegree(t *testing.T) {
	if got := ReadDegree(3); got != 3 {
		t.Fatalf("ReadDegree(3) = %d", got)
	}
	if got := ReadDegree(1); got != 1 {
		t.Fatalf("ReadDegree(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := ReadDegree(0); got != want {
		t.Fatalf("ReadDegree(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := ReadDegree(-5); got != want {
		t.Fatalf("ReadDegree(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}
