//go:build goexperiment.synctest

package window

import (
	"testing"
	"testing/synctest"
	"time"

	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// These tests run under Go's synctest bubble (GOEXPERIMENT=synctest):
// time is virtual, so AutoRotate's Width-ticker fires deterministically
// — epoch boundaries land exactly where the test sleeps to, with no
// wall-clock sleeps and no flaky rotation races.

// TestSynctestAutoRotateExcludesExpired pins the ticker-driven window
// contract end to end: items ingested in the first epoch are visible
// for exactly Slots epochs of virtual time and excluded afterwards.
func TestSynctestAutoRotateExcludesExpired(t *testing.T) {
	synctest.Run(func() {
		eng := theta.NewEngine(theta.ConcurrentConfig{K: 2048, Writers: 1, MaxError: 1})
		w := New(eng, Config{Slots: 3, Width: time.Second})
		w.AutoRotate()
		wr := w.Writer(0)

		for i := 0; i < 100; i++ {
			wr.Update(uint64(i))
		}
		wr.Flush()
		synctest.Wait()
		if got := w.QueryWindow(); got != 100 {
			t.Fatalf("active-epoch window = %v, want 100", got)
		}

		// 1.5 epochs in: one rotation has fired, items are sealed but
		// in-window.
		time.Sleep(1500 * time.Millisecond)
		synctest.Wait()
		if w.Epoch() != 1 {
			t.Fatalf("epoch after 1.5s = %d, want 1", w.Epoch())
		}
		if got := w.QueryWindow(); got != 100 {
			t.Fatalf("sealed-epoch window = %v, want 100", got)
		}

		// Past Slots epochs: the first epoch has expired.
		time.Sleep(2 * time.Second)
		synctest.Wait()
		if w.Epoch() != 3 {
			t.Fatalf("epoch after 3.5s = %d, want 3", w.Epoch())
		}
		if got := w.QueryWindow(); got != 0 {
			t.Fatalf("post-expiry window = %v, want 0", got)
		}
		if got := w.QueryWindowCached(); got != 0 {
			t.Fatalf("post-expiry cached window = %v, want 0", got)
		}
		w.Close()
	})
}

// TestSynctestAutoRotateTable drives the windowed keyed table on the
// virtual clock: per-key results age out after Slots epochs,
// deterministically.
func TestSynctestAutoRotateTable(t *testing.T) {
	synctest.Run(func() {
		tcfg, eng := table.ThetaConfig[string]{
			Table: table.Config[string]{Writers: 1, Shards: 8},
			K:     1024, MaxError: 1,
		}.Engine()
		wt := NewTable(tcfg, eng, Config{Slots: 3, Width: time.Second})
		wt.AutoRotate()
		w := wt.Writer(0)

		for i := 0; i < 50; i++ {
			w.UpdateKeyed("t0", uint64(i))
		}
		w.FlushKey("t0")
		synctest.Wait()
		if got, ok := wt.QueryWindow("t0"); !ok || got != 50 {
			t.Fatalf("active-epoch query = %v (ok=%v), want 50", got, ok)
		}

		// After one and two rotations the key's epoch is sealed and
		// still in the window for Slots=3.
		for e := 1; e <= 2; e++ {
			time.Sleep(time.Second)
			synctest.Wait()
			if wt.Epoch() != int64(e) {
				t.Fatalf("epoch = %d, want %d", wt.Epoch(), e)
			}
			if got, ok := wt.QueryWindow("t0"); !ok || got != 50 {
				t.Fatalf("epoch %d query = %v (ok=%v), want 50", e, got, ok)
			}
		}

		// Third rotation expires the key's epoch entirely.
		time.Sleep(time.Second)
		synctest.Wait()
		if wt.Epoch() != 3 {
			t.Fatalf("epoch = %d, want 3", wt.Epoch())
		}
		if got, ok := wt.QueryWindow("t0"); ok {
			t.Fatalf("expired key still resolves: %v", got)
		}
		wt.Close()
	})
}

// TestSynctestRotationRelaxationBound: an un-flushed writer buffer at
// a rotation is not lost — the tick's rotation flushes it into its own
// (still in-window) epoch as it seals it.
func TestSynctestRotationRelaxationBound(t *testing.T) {
	synctest.Run(func() {
		eng := theta.NewEngine(theta.ConcurrentConfig{
			K: 2048, Writers: 1, MaxError: 1, BufferSize: 256,
		})
		w := New(eng, Config{Slots: 4, Width: time.Second})
		w.AutoRotate()
		wr := w.Writer(0)

		for i := 0; i < 40; i++ {
			wr.Update(uint64(i)) // buffered, never handed off
		}
		// First tick seals epoch 0, flushing the 40 from the local slot.
		time.Sleep(1100 * time.Millisecond)
		synctest.Wait()
		wr.Update(uint64(999))
		wr.Flush()
		time.Sleep(time.Second)
		synctest.Wait()
		if got := w.QueryWindow(); got != 41 {
			t.Fatalf("window after reseal = %v, want 41", got)
		}
		w.Close()
	})
}
