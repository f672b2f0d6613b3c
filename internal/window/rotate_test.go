package window

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/relax"
	"github.com/fcds/fcds/internal/table"
)

// TestWindowTableRelaxationBound is the paper's guarantee at the keyed
// window: N writers race one key through rotations, each querying the
// window after every update call of its own, beside a reader that only
// queries; the whole history is recorded. Slots exceeds the number of
// rotations, so nothing expires and the window is the whole stream:
// every query must lie in [C(q) − r, P(q)] with r = 2·N·b for the whole
// window, not r per epoch — a rotation seals an epoch only after
// flushing every writer slot. After Drain nothing is lost or counted
// twice. Run under -race.
func TestWindowTableRelaxationBound(t *testing.T) {
	const writers, perWriter, rotations, key = 4, 160, 12, uint64(42)
	tcfg, eng := table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: writers, Shards: 8},
		K:     4096, MaxError: 1, // exact mode throughout, no flat phase
	}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: rotations + 2, Width: time.Hour})
	defer wt.Close()
	rec := relax.NewRecorder()
	query := func() {
		inv := rec.Begin()
		if est, ok := wt.QueryWindow(key); ok {
			rec.EndQuery(est, inv)
		}
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	var sent atomic.Int64 // updates returned so far
	wg.Add(2)
	go func() { // rotator: spread over the run, not all up front
		defer wg.Done()
		for i := int64(1); i <= rotations; i++ {
			for sent.Load() < i*writers*perWriter/(rotations+1) {
				runtime.Gosched()
			}
			wt.Rotate()
		}
	}()
	go func() { // reader; bounded: CheckCounting is quadratic in queries
		defer wg.Done()
		for n := 0; n < 800 && !done.Load(); n++ {
			query()
			runtime.Gosched()
		}
	}()
	var ww sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		ww.Add(1)
		go func(wi int) {
			defer ww.Done()
			w := wt.Writer(wi)
			ks := []uint64{key, key, key}
			for i := 0; i < perWriter; {
				inv := rec.Begin()
				if i%2 == 0 {
					v := uint64(wi*perWriter + i)
					w.UpdateKeyed(key, v)
					rec.EndUpdate(wi, v, inv)
					sent.Add(1)
					query()
					i++
					continue
				}
				n := min(3, perWriter-i)
				vs := make([]uint64, n)
				for j := range vs {
					vs[j] = uint64(wi*perWriter + i + j)
				}
				w.UpdateKeyedBatch(ks[:n], vs)
				for _, v := range vs {
					rec.EndUpdate(wi, v, inv)
				}
				sent.Add(int64(n))
				query()
				i += n
			}
		}(wi)
	}
	ww.Wait()
	done.Store(true)
	wg.Wait()
	if err := relax.CheckCounting(rec.History(), wt.RelaxationPerEpoch()); err != nil {
		t.Fatal(err)
	}
	wt.Drain()
	if est, _ := wt.QueryWindow(key); est != writers*perWriter {
		t.Fatalf("window after Drain = %v, want %d", est, writers*perWriter)
	}
	if wt.Rotations() != rotations || wt.ExpiredEpochs() != 0 {
		t.Fatalf("%d rotations, %d epochs expired; want %d and 0", wt.Rotations(), wt.ExpiredEpochs(), rotations)
	}
}

// TestWindowTableRotateBesideReads: one goroutine rotates as fast as it
// can — faster than any ingestion call — while two writers ingest and a
// reader loops over every window read. Slots is 2, so keys keep leaving
// the window and coming back. Under -race: no race, no panic, no use of
// a closed sketch; once rotation stops, the last epoch's items are all
// visible after a Drain.
func TestWindowTableRotateBesideReads(t *testing.T) {
	const writers, batches = 2, 300
	tcfg, eng := table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: writers, Shards: 16},
		K:     1024, MaxError: 0.2, // flat keys and concurrent ones
	}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: 2, Width: time.Hour})
	defer wt.Close()
	var stop atomic.Bool
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for !stop.Load() {
			wt.Rotate()
		}
	}()
	go func() {
		defer bg.Done()
		for !stop.Load() {
			for k := uint64(0); k < 24; k++ {
				_, _ = wt.QueryWindow(k)
				_, _ = wt.CompactWindowKey(k)
			}
			_ = wt.RollupWindow()
			if _, err := wt.WindowSnapshot(); err != nil {
				t.Error(err)
				return
			}
			_ = wt.Keys()
		}
	}()
	var ww sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		ww.Add(1)
		go func(wi int) {
			defer ww.Done()
			w := wt.Writer(wi)
			keys := make([]uint64, 64)
			vals := make([]uint64, 64)
			for n := 0; n < batches; n++ {
				for j := range keys {
					// Half the keys appear only every third batch.
					keys[j] = uint64(j % 16)
					if n%3 != 0 && keys[j] >= 8 {
						keys[j] -= 8
					}
					vals[j] = uint64(wi)<<32 | uint64(n*64+j)
				}
				w.UpdateKeyedBatch(keys, vals)
				if n%50 == 0 {
					w.FlushKey(0)
				}
			}
		}(wi)
	}
	ww.Wait()
	stop.Store(true)
	bg.Wait()

	// The last epoch: each writer sends fresh items to a key of its own.
	for wi := 0; wi < writers; wi++ {
		w := wt.Writer(wi)
		key := uint64(100 + wi)
		for i := 0; i < 700; i++ {
			w.UpdateKeyed(key, uint64(i))
		}
	}
	wt.Drain()
	for wi := 0; wi < writers; wi++ {
		if est, ok := wt.QueryWindow(uint64(100 + wi)); !ok || est != 700 {
			t.Fatalf("writer %d's last-epoch key = %v (ok=%v), want 700", wi, est, ok)
		}
	}
	if wt.Rotations() == 0 {
		t.Fatal("no rotation ran beside the writers")
	}
}

// TestWindowTableKeysCountWholeWindow: Keys counts every key with data
// anywhere in the window, and a key leaves once its last epoch expires.
func TestWindowTableKeysCountWholeWindow(t *testing.T) {
	tcfg, eng := table.ThetaConfig[uint64]{Table: table.Config[uint64]{Writers: 1, Shards: 8}}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: 3, Width: time.Hour})
	defer wt.Close()
	w := wt.Writer(0)
	w.UpdateKeyed(1, 1)
	w.UpdateKeyed(2, 1)
	for rot := 1; rot <= 3; rot++ {
		wt.Rotate()
		w.UpdateKeyed(2, uint64(rot))
		want := 2
		if rot == 3 {
			want = 1 // key 1's only epoch expired
		}
		if got := wt.Keys(); got != want {
			t.Fatalf("after rotation %d: %d keys, want %d", rot, got, want)
		}
	}
	if _, ok := wt.QueryWindow(1); ok {
		t.Fatal("expired key 1 still resolves")
	}
}
