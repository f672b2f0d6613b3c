package window

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/core"
	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/table"
	"github.com/fcds/fcds/internal/theta"
)

// The outputs of a window for one seeded input, recorded when every
// epoch of a keyed window was a keyed table of its own. The input spans
// pinSlots+2 rotations, so epochs expire, and every read follows a
// Drain, so the outputs are a function of the input alone. Θ and HLL
// outputs are pinned by the sha256 of their bytes, read after every
// epoch (a window snapshot's in key order: FCTB itself follows map
// order): a change that moves them changes what a window answers.
const (
	pinThetaSnapshotSHA256 = "ee2f5dc51dfebb909a9218bc121ddd5a2aa385fa573249ba836e78ad9f68089c"
	pinThetaRollupSHA256   = "3da27ad61815d5176cebeba4271bc38b7fbef97c42a996fcbba2b9d4bc592965"
	pinThetaQuerySHA256    = "b838ef04df588f9db8993814c9cb99a4f7d941d5106074a28272e9772b5ef9b8"
	pinHLLSnapshotSHA256   = "7737a606810a7143aad777cde9917efe9a18e1095ff65241b81c327611f78410"
	pinHLLRollupSHA256     = "fea8310a4bd1ab65df1403168d4fa299a9c2242b85f5e648cf2b0232b5e7eaef"
	pinHLLQuerySHA256      = "e03fc124d5956921050e20608f3406a6b79567c89599537ca9ca285a7bec630e"
	pinWindowedSHA256      = "82c482b11aa1ba0267a4a45d10c0a100b449d30c0b54b2c240239f2759140cac"
)

const (
	pinSlots  = 4
	pinEpochs = pinSlots + 3 // epochs 0 … pinSlots+2: pinSlots+2 rotations
	pinKeys   = 24
)

// pinKeyedEpoch is one epoch of the keyed input: each of pinKeys keys
// appears with probability ½, with a run of 5, 40, 300 or 3 000 items
// drawn from 5 000 per key (so items repeat within and across epochs),
// the pairs shuffled together. A run of 5 or 40 keeps a Θ key flat
// (eager limit 50), 300 and 3 000 put it in estimation mode (K = 64).
func pinKeyedEpoch(rng *rand.Rand) (keys, vals []uint64) {
	for key := uint64(0); key < pinKeys; key++ {
		if rng.Intn(2) == 0 {
			continue
		}
		n := []int{5, 40, 300, 3000}[rng.Intn(4)]
		for i := 0; i < n; i++ {
			keys = append(keys, key)
			vals = append(vals, key<<32|uint64(rng.Intn(5000)))
		}
	}
	rng.Shuffle(len(keys), func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
		vals[i], vals[j] = vals[j], vals[i]
	})
	return keys, vals
}

// sendBatches feeds parallel slices through send in 1 024-pair batches.
func sendBatches[V any](keys []uint64, vals []V, send func([]uint64, []V)) {
	for off := 0; off < len(keys); off += 1024 {
		end := min(off+1024, len(keys))
		send(keys[off:end], vals[off:end])
	}
}

// pinKeyedWindow drives a keyed window of float64-estimate family
// through the pinned input and returns the running sha256 of its
// window snapshots, rollups and per-key answers (absent keys included).
func pinKeyedWindow[C any](t *testing.T, tcfg table.Config[uint64], eng core.Engine[uint64, float64, C]) (snap, roll, query string) {
	t.Helper()
	wt := NewTable(tcfg, eng, Config{Slots: pinSlots, Width: time.Hour})
	defer wt.Close()
	w := wt.Writer(0)
	rng := rand.New(rand.NewSource(0x5eed1))
	hs, hr, hq := sha256.New(), sha256.New(), sha256.New()
	read := func() {
		wt.Drain()
		s, err := wt.WindowSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// FCTB writes keys in map order: hash the header, then each
		// key's compact bytes in key order.
		hs.Write(b[:16])
		var keys []uint64
		s.ForEach(func(k uint64, _ C) { keys = append(keys, k) })
		slices.Sort(keys)
		for _, k := range keys {
			c, _ := s.Get(k)
			cb, err := eng.MarshalCompact(c)
			if err != nil {
				t.Fatal(err)
			}
			hs.Write(binary.LittleEndian.AppendUint64(nil, k))
			hs.Write(cb)
		}
		b, err = eng.MarshalCompact(wt.RollupWindow())
		if err != nil {
			t.Fatal(err)
		}
		hr.Write(b)
		for key := uint64(0); key <= pinKeys; key++ {
			est, ok := wt.QueryWindow(key)
			writeAnswer(hq, ok, est)
		}
	}
	for e := 0; e < pinEpochs; e++ {
		if e > 0 {
			wt.Rotate()
		}
		keys, vals := pinKeyedEpoch(rng)
		sendBatches(keys, vals, w.UpdateKeyedBatch)
		read()
	}
	wt.Rotate() // a last epoch with no input
	read()
	return sum(hs), sum(hr), sum(hq)
}

func writeAnswer(h hash.Hash, ok bool, est float64) {
	var b [9]byte
	if ok {
		b[0] = 1
	}
	binary.LittleEndian.PutUint64(b[1:], math.Float64bits(est))
	h.Write(b[:])
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func checkPin(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s sha256 = %s, pinned %s", what, got, want)
	}
}

// TestPinnedThetaWindowTable: a keyed Θ window's snapshot, rollup and
// per-key answers, with keys flat, exact and in estimation mode.
func TestPinnedThetaWindowTable(t *testing.T) {
	tcfg, eng := table.ThetaConfig[uint64]{
		Table: table.Config[uint64]{Writers: 1, Shards: 8},
		K:     64, MaxError: 0.2,
	}.Engine()
	snap, roll, query := pinKeyedWindow(t, tcfg, core.Engine[uint64, float64, *theta.Compact](eng))
	checkPin(t, "Θ window snapshot", snap, pinThetaSnapshotSHA256)
	checkPin(t, "Θ window rollup", roll, pinThetaRollupSHA256)
	checkPin(t, "Θ window queries", query, pinThetaQuerySHA256)
}

// TestPinnedHLLWindowTable: the same for a keyed HLL window.
func TestPinnedHLLWindowTable(t *testing.T) {
	tcfg, eng := table.HLLConfig[uint64]{
		Table:     table.Config[uint64]{Writers: 1, Shards: 8},
		Precision: 8,
	}.Engine()
	snap, roll, query := pinKeyedWindow(t, tcfg, eng)
	checkPin(t, "HLL window snapshot", snap, pinHLLSnapshotSHA256)
	checkPin(t, "HLL window rollup", roll, pinHLLRollupSHA256)
	checkPin(t, "HLL window queries", query, pinHLLQuerySHA256)
}

// TestPinnedQuantilesWindowTable: a keyed quantiles window answers each
// key over exactly the in-window epochs — its count exact, every
// sampled φ-quantile within the rank error of the true in-window
// samples (with merge-level slack, as in the table's property tests).
// Bytes are not pinned: how many compactions a merged sketch went
// through depends on the order its epochs were merged in.
func TestPinnedQuantilesWindowTable(t *testing.T) {
	const k = 128
	eps := 4 * quantiles.NormalizedRankError(k)
	tcfg, eng := table.QuantilesConfig[uint64]{
		Table: table.Config[uint64]{Writers: 1, Shards: 8},
		K:     k,
	}.Engine()
	wt := NewTable(tcfg, eng, Config{Slots: pinSlots, Width: time.Hour})
	defer wt.Close()
	w := wt.Writer(0)
	rng := rand.New(rand.NewSource(0x5eed2))
	var epochs [][pinKeys][]float64 // per epoch, per key: its samples
	check := func(e int) {
		wt.Drain()
		for key := uint64(0); key < pinKeys; key++ {
			var truth []float64
			for _, ep := range epochs[max(0, len(epochs)-pinSlots):] {
				truth = append(truth, ep[key]...)
			}
			s, ok := wt.QueryWindow(key)
			if ok != (len(truth) > 0) {
				t.Fatalf("epoch %d key %d: found %v, in-window samples %d", e, key, ok, len(truth))
			}
			if !ok {
				continue
			}
			if s.N() != uint64(len(truth)) {
				t.Fatalf("epoch %d key %d: N = %d, want %d", e, key, s.N(), len(truth))
			}
			slices.Sort(truth)
			for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
				// q's true rank is anywhere from the share of samples
				// below it to the share at or below it.
				q := s.Quantile(phi)
				lo, _ := slices.BinarySearch(truth, q)
				hi, _ := slices.BinarySearch(truth, math.Nextafter(q, math.Inf(1)))
				n := float64(len(truth))
				if phi < float64(lo)/n-eps || phi > float64(hi)/n+eps {
					t.Fatalf("epoch %d key %d: q(%v) = %v has rank [%.4f, %.4f] (eps %.4f)", e, key, phi, q, float64(lo)/n, float64(hi)/n, eps)
				}
			}
		}
	}
	for e := 0; e < pinEpochs; e++ {
		if e > 0 {
			wt.Rotate()
		}
		var ep [pinKeys][]float64
		var keys []uint64
		var vals []float64
		for key := uint64(0); key < pinKeys; key++ {
			if rng.Intn(2) == 0 {
				continue
			}
			for i, n := 0, []int{5, 40, 300, 3000}[rng.Intn(4)]; i < n; i++ {
				v := rng.Float64()*1000 + float64(e)*100
				keys = append(keys, key)
				vals = append(vals, v)
				ep[key] = append(ep[key], v)
			}
		}
		rng.Shuffle(len(keys), func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
			vals[i], vals[j] = vals[j], vals[i]
		})
		sendBatches(keys, vals, w.UpdateKeyedBatch)
		epochs = append(epochs, ep)
		check(e)
	}
	wt.Rotate()
	epochs = append(epochs, [pinKeys][]float64{})
	check(pinEpochs)
}

// TestPinnedWindowedTheta: a standalone Θ window's WindowCompact bytes.
// Each epoch holds 100 to 900 items of 20 000, so every epoch's sketch
// (K = 1 024) stays exact while the union of a full window does not;
// epochs under the eager limit (200) stay flat.
func TestPinnedWindowedTheta(t *testing.T) {
	eng := theta.NewEngine(theta.ConcurrentConfig{K: 1024, Writers: 1, MaxError: 0.1})
	w := New(eng, Config{Slots: pinSlots, Width: time.Hour})
	defer w.Close()
	wr := w.Writer(0)
	rng := rand.New(rand.NewSource(0x5eed3))
	h := sha256.New()
	read := func() {
		w.Drain()
		b, err := eng.MarshalCompact(w.WindowCompact())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	for e := 0; e < pinEpochs; e++ {
		if e > 0 {
			w.Rotate()
		}
		vals := make([]uint64, 100+rng.Intn(800))
		for i := range vals {
			vals[i] = uint64(rng.Intn(20000))
		}
		for off := 0; off < len(vals); off += 256 {
			wr.UpdateBatch(vals[off:min(off+256, len(vals))])
		}
		read()
	}
	w.Rotate()
	read()
	checkPin(t, "windowed Θ compact", sum(h), pinWindowedSHA256)
}
