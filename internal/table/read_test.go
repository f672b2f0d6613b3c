package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/fcds/fcds/internal/quantiles"
	"github.com/fcds/fcds/internal/theta"
)

// Property tests for the parallel read path: on one quiesced table,
// the fanned-out rollup, snapshot capture and streaming serialization
// must answer exactly like the serial (degree-1) walk. Captures never
// merge, so they compare bytes-exact for every family; rollups merge
// in a degree-dependent order, so Θ and HLL (order-insensitive
// unions) compare exact while quantiles (compaction coins follow the
// merge order) compare within the a-priori rank-error bound. Every
// trial is seeded, so failures reproduce.

const readTestDegree = 8

// populateTheta fills a Θ table with nKeys seeded keys and quiesces it.
func populateTheta(rng *rand.Rand, nKeys int) *ThetaTable[string] {
	tab := NewTheta(ThetaConfig[string]{
		Table: Config[string]{Writers: 2, Shards: 8},
		K:     512, MaxError: 1,
	})
	var keys []string
	var vals []uint64
	for ki := 0; ki < nKeys; ki++ {
		key := fmt.Sprintf("k%03d", ki)
		for j, n := 0, 1+rng.Intn(400); j < n; j++ {
			keys = append(keys, key)
			vals = append(vals, rng.Uint64())
		}
	}
	tab.Writer(0).UpdateKeyedBatch(keys, vals)
	tab.Drain()
	return tab
}

// TestRollupParallelMatchesSerialTheta: Θ unions are order-insensitive
// and serialize sorted, so the fanned rollup must be byte-identical to
// the serial one.
func TestRollupParallelMatchesSerialTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(0x01ea))
	for trial := 0; trial < 5; trial++ {
		tab := populateTheta(rng, 1+rng.Intn(300))
		serial, _ := tab.Engine().MarshalCompact(tab.rollup(1))
		parallel, _ := tab.Engine().MarshalCompact(tab.rollup(readTestDegree))
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("trial %d: parallel rollup differs from serial (%d keys)", trial, tab.Keys())
		}
		tab.Close()
	}
}

// TestRollupParallelMatchesSerialHLL: register-wise max is merge-order
// insensitive, so the fanned rollup must be byte-identical.
func TestRollupParallelMatchesSerialHLL(t *testing.T) {
	rng := rand.New(rand.NewSource(0x477b))
	for trial := 0; trial < 5; trial++ {
		tab := NewHLL(HLLConfig[uint64]{
			Table:     Config[uint64]{Writers: 2, Shards: 8},
			Precision: 10,
		})
		var keys, vals []uint64
		for ki, nk := 0, 1+rng.Intn(300); ki < nk; ki++ {
			for j, n := 0, 1+rng.Intn(500); j < n; j++ {
				keys = append(keys, uint64(ki))
				vals = append(vals, rng.Uint64())
			}
		}
		tab.Writer(0).UpdateKeyedBatch(keys, vals)
		tab.Drain()
		serial, _ := tab.Engine().MarshalCompact(tab.rollup(1))
		parallel, _ := tab.Engine().MarshalCompact(tab.rollup(readTestDegree))
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("trial %d: parallel rollup differs from serial (%d keys)", trial, tab.Keys())
		}
		tab.Close()
	}
}

// TestRollupParallelMatchesSerialQuantiles: the tree merge draws
// compaction coins in a different order than the serial fold, so the
// parallel rollup is a different — but equally valid — sketch of the
// same stream: N/min/max exact, every φ-quantile within the rank
// error (with merge-level slack, as in the engine property tests).
func TestRollupParallelMatchesSerialQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9a42))
	const k = 128
	eps := 4 * quantiles.NormalizedRankError(k)
	tab := NewQuantiles(QuantilesConfig[string]{
		Table: Config[string]{Writers: 2, Shards: 8},
		K:     k,
	})
	n := 20000
	vals := make([]float64, n)
	keys := make([]string, n)
	for i := range vals {
		vals[i] = float64(i) // true φ-quantile is φ·n
		keys[i] = fmt.Sprintf("k%03d", rng.Intn(200))
	}
	rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	tab.Writer(0).UpdateKeyedBatch(keys, vals)
	tab.Drain()

	serial := tab.rollup(1)
	parallel := tab.rollup(readTestDegree)
	if serial.N() != parallel.N() || serial.N() != uint64(n) {
		t.Fatalf("N: serial %d, parallel %d, want %d", serial.N(), parallel.N(), n)
	}
	if serial.Min() != parallel.Min() || serial.Max() != parallel.Max() {
		t.Fatalf("range: serial [%v,%v], parallel [%v,%v]",
			serial.Min(), serial.Max(), parallel.Min(), parallel.Max())
	}
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		got := parallel.Snapshot().Quantile(phi)
		if dev := math.Abs(got/float64(n) - phi); dev > eps {
			t.Fatalf("parallel q(%v) = %v of n=%d (rank dev %.4f > %.4f)", phi, got, n, dev, eps)
		}
	}
	tab.Close()
}

// TestSnapshotParallelMatchesSerial: snapshot captures never merge, so
// for every family the fanned capture must be key-for-key
// byte-identical to the serial one — through both the map capture
// (snapshotInto) and the streaming serialization (appendSnapshot).
func TestSnapshotParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a9d))
	tab := populateTheta(rng, 1+rng.Intn(300))
	defer tab.Close()
	eng := tab.Engine()

	s1 := NewTableSnapshot[string](eng)
	s8 := NewTableSnapshot[string](eng)
	tab.snapshotInto(s1, 1)
	tab.snapshotInto(s8, readTestDegree)
	if s1.Len() != s8.Len() || s1.Len() != tab.Keys() {
		t.Fatalf("lengths: serial %d, parallel %d, table %d", s1.Len(), s8.Len(), tab.Keys())
	}
	s1.ForEach(func(k string, c *theta.Compact) {
		pc, ok := s8.Get(k)
		if !ok {
			t.Fatalf("key %q missing from parallel capture", k)
		}
		sb, _ := eng.MarshalCompact(c)
		pb, _ := eng.MarshalCompact(pc)
		if !bytes.Equal(sb, pb) {
			t.Fatalf("key %q: parallel compact differs from serial", k)
		}
	})

	b1, err := tab.appendSnapshot(nil, 1)
	if err != nil {
		t.Fatalf("serial appendSnapshot: %v", err)
	}
	b8, err := tab.appendSnapshot(nil, readTestDegree)
	if err != nil {
		t.Fatalf("parallel appendSnapshot: %v", err)
	}
	// Workers claim entries dynamically, so the parallel byte stream
	// orders entries differently — compare the parsed captures.
	p1, err := UnmarshalThetaSnapshot[string](b1)
	if err != nil {
		t.Fatalf("parse serial: %v", err)
	}
	p8, err := UnmarshalThetaSnapshot[string](b8)
	if err != nil {
		t.Fatalf("parse parallel: %v", err)
	}
	if p1.Len() != p8.Len() || p1.Len() != tab.Keys() {
		t.Fatalf("parsed lengths: serial %d, parallel %d, table %d", p1.Len(), p8.Len(), tab.Keys())
	}
	p1.ForEach(func(k string, c *theta.Compact) {
		pc, ok := p8.Get(k)
		if !ok {
			t.Fatalf("key %q missing from parallel serialization", k)
		}
		sb, _ := eng.MarshalCompact(c)
		pb, _ := eng.MarshalCompact(pc)
		if !bytes.Equal(sb, pb) {
			t.Fatalf("key %q: parallel serialization differs from serial", k)
		}
	})
}

// TestSnapshotAppendMatchesAppendBinary: the streaming parallel
// serialization and the snapshot's own AppendBinary describe the same
// capture — parse both, same keys, same per-key bytes. Pins the two
// encoders to one wire format.
func TestSnapshotAppendMatchesAppendBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(0xab1e))
	tab := populateTheta(rng, 120)
	defer tab.Close()

	viaSnap, err := tab.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	direct, err := tab.SnapshotAppend(nil)
	if err != nil {
		t.Fatalf("SnapshotAppend: %v", err)
	}
	a, err := UnmarshalThetaSnapshot[string](viaSnap)
	if err != nil {
		t.Fatalf("parse MarshalBinary image: %v", err)
	}
	b, err := UnmarshalThetaSnapshot[string](direct)
	if err != nil {
		t.Fatalf("parse SnapshotAppend image: %v", err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	eng := tab.Engine()
	a.ForEach(func(k string, c *theta.Compact) {
		bc, ok := b.Get(k)
		if !ok {
			t.Fatalf("key %q missing from SnapshotAppend image", k)
		}
		ab, _ := eng.MarshalCompact(c)
		bb, _ := eng.MarshalCompact(bc)
		if !bytes.Equal(ab, bb) {
			t.Fatalf("key %q: encodings disagree", k)
		}
	})
}

// TestReadPathConcurrentWithIngest races the whole parallel read path
// against keyed ingest and TTL eviction (run under -race in CI): two
// writers stream keyed updates, one goroutine evicts expired keys and
// one loops Rollup/Snapshot/SnapshotAppend through the public API.
// Correctness here is "no race, no panic, every capture parses" — the
// quiesced-table equivalences above pin the values.
func TestReadPathConcurrentWithIngest(t *testing.T) {
	tab := NewTheta(ThetaConfig[string]{
		Table: Config[string]{
			Writers: 2, Shards: 8,
			TTL: time.Millisecond, ReadParallelism: 4,
		},
		K: 256, MaxError: 1,
	})
	defer tab.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(0xace + wi)))
			w := tab.Writer(wi)
			keys := make([]string, 64)
			vals := make([]uint64, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range keys {
					keys[i] = fmt.Sprintf("k%02d", rng.Intn(40))
					vals[i] = rng.Uint64()
				}
				w.UpdateKeyedBatch(keys, vals)
			}
		}(wi)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tab.EvictExpired()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	var buf []byte
	for time.Now().Before(deadline) {
		if est := tab.Rollup().Estimate(); est < 0 {
			t.Fatalf("negative rollup estimate %v", est)
		}
		snap := tab.Snapshot()
		var err error
		buf, err = tab.SnapshotAppend(buf[:0])
		if err != nil {
			t.Fatalf("SnapshotAppend: %v", err)
		}
		parsed, err := UnmarshalThetaSnapshot[string](buf)
		if err != nil {
			t.Fatalf("parse mid-ingest capture: %v", err)
		}
		_ = snap.Len()
		_ = parsed.Len()
	}
	close(stop)
	wg.Wait()
}
