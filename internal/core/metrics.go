package core

import (
	"strconv"

	"github.com/fcds/fcds/internal/metrics"
)

// RegisterPoolMetrics exports a PropagatorPool's scheduling counters
// into reg. Every series is func-backed and read at scrape time from
// the pool's existing state: the worker run loop and the submit path
// are not touched, so their zero-allocation budgets are unaffected.
//
// Families: fcds_pool_workers, fcds_pool_sketches,
// fcds_pool_parked_workers, fcds_pool_queue_depth, and per-worker
// fcds_pool_worker_runs_total / fcds_pool_wake_tokens_total.
func RegisterPoolMetrics(reg *metrics.Registry, p *PropagatorPool) {
	reg.GaugeFunc("fcds_pool_workers",
		"Number of propagator goroutines in the pool.",
		func() float64 { return float64(p.Workers()) })
	reg.GaugeFunc("fcds_pool_sketches",
		"Sketches currently attached to the pool. For a pool owned by a keyed theta table, fcds_table_keys minus this is the number of keys still in their flat eager phase.",
		func() float64 { return float64(p.Sketches()) })
	reg.GaugeFunc("fcds_pool_parked_workers",
		"Workers currently parked waiting for work.",
		func() float64 { return float64(p.Parked()) })
	reg.GaugeFunc("fcds_pool_queue_depth",
		"Run-queue depth (scheduled, not yet run), shared by every worker.",
		func() float64 { return float64(p.depth()) })
	for i := range p.ws {
		w := &p.ws[i]
		lbl := strconv.Itoa(i)
		reg.CounterFunc("fcds_pool_worker_runs_total",
			"Propagation runs executed per worker.",
			func() float64 { return float64(w.runs.Load()) }, "worker", lbl)
		reg.CounterFunc("fcds_pool_wake_tokens_total",
			"Wake-ups from a park per worker.",
			func() float64 { return float64(w.wakes.Load()) }, "worker", lbl)
	}
}
