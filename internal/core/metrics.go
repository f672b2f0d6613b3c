package core

import (
	"strconv"

	"github.com/fcds/fcds/internal/metrics"
)

// RegisterPoolMetrics exports a PropagatorPool's scheduling counters
// into reg. Every series is func-backed and read at scrape time from
// the pool's existing atomics: the worker run loop and the submit path
// are not touched, so their zero-allocation budgets are unaffected.
//
// Families: fcds_pool_workers, fcds_pool_sketches,
// fcds_pool_parked_workers, fcds_pool_steals_total, and per-worker
// fcds_pool_queue_depth / fcds_pool_worker_runs_total /
// fcds_pool_worker_stolen_total / fcds_pool_wake_tokens_total.
func RegisterPoolMetrics(reg *metrics.Registry, p *PropagatorPool) {
	reg.GaugeFunc("fcds_pool_workers",
		"Number of propagator goroutines in the pool.",
		func() float64 { return float64(p.Workers()) })
	reg.GaugeFunc("fcds_pool_sketches",
		"Sketches currently attached to the pool. For a pool owned by a keyed theta table, fcds_table_keys minus this is the number of keys still in their flat eager phase.",
		func() float64 { return float64(p.Sketches()) })
	reg.GaugeFunc("fcds_pool_parked_workers",
		"Workers currently parked on their wake channel.",
		func() float64 { return float64(p.Parked()) })
	reg.CounterFunc("fcds_pool_steals_total",
		"Pool-wide cross-queue steals (sketches run off-home).",
		func() float64 { return float64(p.Steals()) })
	for i := range p.ws {
		w := &p.ws[i]
		lbl := strconv.Itoa(i)
		reg.GaugeFunc("fcds_pool_queue_depth",
			"Run-queue depth per worker (scheduled, not yet run).",
			func() float64 {
				w.mu.Lock()
				d := len(w.runq) - w.head
				w.mu.Unlock()
				return float64(d)
			}, "worker", lbl)
		reg.CounterFunc("fcds_pool_worker_runs_total",
			"Propagation runs executed per worker (own + stolen).",
			func() float64 { return float64(w.runs.Load()) }, "worker", lbl)
		reg.CounterFunc("fcds_pool_worker_stolen_total",
			"Sketches stolen from sibling queues, per thief worker.",
			func() float64 { return float64(w.stolen.Load()) }, "worker", lbl)
		reg.CounterFunc("fcds_pool_wake_tokens_total",
			"Wake tokens deposited per worker (submits + steal nudges).",
			func() float64 { return float64(w.wakes.Load()) }, "worker", lbl)
	}
}
