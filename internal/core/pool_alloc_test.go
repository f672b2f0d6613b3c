package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/fcds/fcds/internal/metrics"
)

// countingPropagable is a minimal propagation unit: runPropagation just
// bumps a counter, so a submit→run round trip measures the pool's
// scheduling machinery and nothing else.
type countingPropagable struct {
	runs atomic.Int64
}

func (c *countingPropagable) runPropagation() { c.runs.Add(1) }

// TestPoolRunLoopZeroAllocs pins the pool's scheduling hot path —
// submit, run-queue pop, park and wake, propagation run — at zero
// allocations per cycle with the metrics instrumentation registered.
// The runs/wakes counters are plain atomics in the worker structs and
// every exported series is func-backed, read only at scrape time, so
// registration must not cost the run loop anything.
func TestPoolRunLoopZeroAllocs(t *testing.T) {
	p := NewPropagatorPool(1)
	defer p.Close()
	reg := metrics.NewRegistry()
	RegisterPoolMetrics(reg, p)

	var c countingPropagable
	p.attach()
	defer p.detach()

	cycle := func() {
		want := c.runs.Load() + 1
		p.submit(&c)
		for c.runs.Load() < want {
			runtime.Gosched()
		}
	}
	// Warm up: let the worker allocate its run-queue backing array and
	// settle into the park/unpark steady state.
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("instrumented submit→run cycle allocates %.1f allocs/op, want 0", avg)
	}
	// The registry must still see the traffic it was registered for.
	vals := reg.Values()
	if vals[`fcds_pool_worker_runs_total{worker="0"}`] < 164 {
		t.Errorf("fcds_pool_worker_runs_total = %v, want >= 164", vals[`fcds_pool_worker_runs_total{worker="0"}`])
	}
}
