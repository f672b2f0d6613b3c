package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file provides the bounded fan-out primitive shared by every
// parallel read path (table rollups/snapshots, server checkpoint
// passes). It is deliberately tiny: the read side parallelizes as "N
// independent work items, claimed from a shared counter, folded by at
// most `degree` workers" — no futures, no error plumbing (callers
// record errors per worker slot), no pooling (the goroutines live for
// one call; read-path calls are milliseconds, not microseconds).

// ReadDegree resolves a configured read-parallelism value following
// the table.Config.ReadParallelism convention: values > 0 are taken
// literally, anything else means GOMAXPROCS at call time (so a later
// GOMAXPROCS change is picked up).
func ReadDegree(configured int) int {
	if configured > 0 {
		return configured
	}
	return runtime.GOMAXPROCS(0)
}

// FanOut invokes fn(worker, index) exactly once for every index in
// [0, n), using at most `degree` concurrent workers. The calling
// goroutine participates as worker 0, so degree <= 1 (or n <= 1) runs
// everything inline with no goroutines and no allocation — the serial
// path and the parallel path are the same code.
//
// Indices are claimed from a shared atomic counter in runs of
// n/(claimsPerWorker·degree), at least one, so uneven per-index cost
// still balances across many claims per worker. Worker identifiers are
// dense in [0, min(degree, n)): fn may index per-worker accumulators by
// them, and no two invocations share a worker id concurrently. fn must
// not panic: a panic in a spawned worker crashes the process.
func FanOut(degree, n int, fn func(worker, index int)) {
	if n <= 0 {
		return
	}
	if degree > n {
		degree = n
	}
	if degree <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	run := max(1, n/(claimsPerWorker*degree))
	var next atomic.Int64
	work := func(worker int) {
		for {
			lo := int(next.Add(int64(run))) - run
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+run, n); i++ {
				fn(worker, i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(degree - 1)
	for w := 1; w < degree; w++ {
		go func(worker int) {
			defer wg.Done()
			work(worker)
		}(w)
	}
	work(0)
	wg.Wait()
}

// claimsPerWorker is how many runs of indices FanOut cuts per worker.
// Every claim moves the counter's cache line to the claiming core, so a
// claim per index costs a cross-core transfer per index. That was
// measured when a table rollup still claimed keys, not shards: on
// table_wide's ~47 k mostly flat keys, ~200 ns of work each, two
// workers that claimed one key at a time took longer than one worker
// alone (BenchmarkTableRollup/wide, 2 vCPUs: ~290 ns/key against ~240
// serial; ~110 with runs). Snapshots still claim keys; a rollup now
// claims shards, and at 1 024 shards and two workers a run is 8 of
// them.
const claimsPerWorker = 64
