package characterization

import (
	"fmt"
	"sync"
	"time"

	"github.com/fcds/fcds/internal/lockbased"
	"github.com/fcds/fcds/internal/stream"
	"github.com/fcds/fcds/internal/theta"
)

// Runner executes one ingestion trial of n unique values and reports
// the elapsed wall-clock time. Each Run builds a fresh sketch.
type Runner interface {
	Name() string
	Run(n uint64) time.Duration
}

// ConcurrentThetaRunner ingests with the paper's concurrent Θ sketch:
// Writers goroutines feed disjoint unique ranges through their writer
// handles.
type ConcurrentThetaRunner struct {
	K          int
	Writers    int
	MaxError   float64 // e; 1.0 disables eager propagation
	BufferSize int     // 0 derives b from (K, MaxError, Writers)
	Seed       uint64
}

// Name implements Runner.
func (r *ConcurrentThetaRunner) Name() string {
	return fmt.Sprintf("concurrent-theta/k=%d/writers=%d/e=%g", r.K, r.Writers, r.MaxError)
}

// Run implements Runner.
func (r *ConcurrentThetaRunner) Run(n uint64) time.Duration {
	cfg := theta.ConcurrentConfig{
		K: r.K, Writers: r.Writers, MaxError: r.MaxError,
		BufferSize: r.BufferSize, Seed: r.Seed,
	}
	c := theta.NewConcurrent(cfg)
	defer c.Close()
	parts := stream.Partition(n, r.Writers)
	start := time.Now()
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
	return time.Since(start)
}

// LockThetaRunner ingests with the lock-protected sequential sketch —
// the paper's baseline. Threads goroutines contend on one RWMutex.
type LockThetaRunner struct {
	K       int
	Threads int
	Seed    uint64
}

// Name implements Runner.
func (r *LockThetaRunner) Name() string {
	return fmt.Sprintf("lock-theta/k=%d/threads=%d", r.K, r.Threads)
}

// Run implements Runner.
func (r *LockThetaRunner) Run(n uint64) time.Duration {
	seed := r.Seed
	if seed == 0 {
		seed = 9001
	}
	s := lockbased.NewThetaSeeded(r.K, seed)
	parts := stream.Partition(n, r.Threads)
	start := time.Now()
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
	return time.Since(start)
}

// mixedThetaRunner is Figure 7's workload: writer threads plus
// background reader threads issuing a query every readPause (the
// paper uses 1ms). Run reports the ingestion time of n uniques;
// readers run concurrently and stop when ingestion completes.
type mixedThetaRunner struct {
	name       string
	readers    int
	readPause  time.Duration
	concurrent bool
	k          int
	writers    int
	maxError   float64
}

// NewMixedThetaRunner builds Figure 7's runner. concurrent selects the
// concurrent sketch (true) or the lock-based baseline (false).
func NewMixedThetaRunner(concurrent bool, k, writers, readers int, readPause time.Duration, maxError float64) Runner {
	kind := "lock"
	if concurrent {
		kind = "concurrent"
	}
	return &mixedThetaRunner{
		name: fmt.Sprintf("mixed-%s-theta/k=%d/writers=%d/readers=%d",
			kind, k, writers, readers),
		readers: readers, readPause: readPause,
		concurrent: concurrent, k: k, writers: writers, maxError: maxError,
	}
}

// Name implements Runner.
func (r *mixedThetaRunner) Name() string { return r.name }

// Run implements Runner.
func (r *mixedThetaRunner) Run(n uint64) time.Duration {
	var update func(writer int, v uint64)
	var flush func(writer int)
	var query func() float64
	var done func()

	if r.concurrent {
		c := theta.NewConcurrent(theta.ConcurrentConfig{
			K: r.k, Writers: r.writers, MaxError: r.maxError,
		})
		handles := make([]*theta.ConcurrentWriter, r.writers)
		for i := range handles {
			handles[i] = c.Writer(i)
		}
		update = func(w int, v uint64) { handles[w].UpdateUint64(v) }
		flush = func(w int) { handles[w].Flush() }
		query = c.Estimate
		done = c.Close
	} else {
		s := lockbased.NewTheta(r.k)
		update = func(_ int, v uint64) { s.UpdateUint64(v) }
		flush = func(int) {}
		query = s.Estimate
		done = func() {}
	}
	defer done()

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for i := 0; i < r.readers; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = query()
				time.Sleep(r.readPause)
			}
		}()
	}

	parts := stream.Partition(n, r.writers)
	start := time.Now()
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p stream.Range) {
			defer wg.Done()
			for v := p.Start; v < p.Start+p.Count; v++ {
				update(i, v)
			}
			flush(i)
		}(i, p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	rwg.Wait()
	return elapsed
}
