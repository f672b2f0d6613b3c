package table

import (
	"runtime"
	"sync"
	"testing"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/relax"
)

// TestSharedPoolQuantilesRelaxation: the paper's bound behind a shared
// pool of several propagators, which is not its one-propagator model.
// Four writers race distinct samples into eight keys of a quantiles
// table whose pool has four workers, beside a reader; each key's count
// (Snapshot().N()) must stay within the table's r = 2·N·b of the
// updates that completed before each query (relax.CheckCounting), and
// after Drain every count is exact. K = 16 keeps the eager phase (32
// updates) and b (32) short against the 1 200 updates per key. Run
// under -race -count=20.
func TestSharedPoolQuantilesRelaxation(t *testing.T) {
	const writers, keys, rounds, perRound = 4, 8, 150, 2
	pool := core.NewPropagatorPool(4)
	defer pool.Close()
	tab := NewQuantiles(QuantilesConfig[uint64]{
		Table: Config[uint64]{Writers: writers, Shards: 4, Pool: pool},
		K:     16,
	})
	defer tab.Close()
	recs := make([]*relax.Recorder, keys)
	for k := range recs {
		recs[k] = relax.NewRecorder()
	}
	query := func(k int) {
		inv := recs[k].Begin()
		if s, ok := tab.SnapshotKey(uint64(k)); ok {
			recs[k].EndQuery(float64(s.N()), inv)
		}
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		// Bounded: CheckCounting is quadratic in the number of queries.
		for n := 0; n < 300; n++ {
			select {
			case <-stop:
				return
			default:
			}
			for k := 0; k < keys; k++ {
				query(k)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := tab.Writer(wi)
			ks := make([]uint64, 0, keys*perRound)
			vs := make([]float64, 0, keys*perRound)
			invs := make([]int64, keys)
			for r := 0; r < rounds; r++ {
				ks, vs = ks[:0], vs[:0]
				for k := 0; k < keys; k++ {
					invs[k] = recs[k].Begin()
					for j := 0; j < perRound; j++ {
						ks = append(ks, uint64(k))
						vs = append(vs, float64(sampleID(wi, r, j)))
					}
				}
				w.UpdateKeyedBatch(ks, vs)
				for i, k := range ks {
					recs[k].EndUpdate(wi, uint64(vs[i]), invs[k])
				}
			}
		}(wi)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	r := tab.Relaxation()
	for k, rec := range recs {
		if err := relax.CheckCounting(rec.History(), r); err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
	}
	tab.Drain()
	for k := 0; k < keys; k++ {
		s, ok := tab.SnapshotKey(uint64(k))
		if !ok {
			t.Fatalf("key %d missing after Drain", k)
		}
		if got := s.N(); got != writers*rounds*perRound {
			t.Fatalf("key %d: N after Drain = %d, want %d", k, got, writers*rounds*perRound)
		}
	}
}

// sampleID is a sample distinct across writers, rounds and the samples
// of a round.
func sampleID(writer, round, j int) int { return (writer*1000+round)*10 + j }
