package quantiles

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSerdeRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, New(128))
	if !got.IsEmpty() || got.K() != 128 {
		t.Error("empty round trip failed")
	}
}

func TestSerdeRoundTripSmall(t *testing.T) {
	s := New(64)
	for i := 1; i <= 100; i++ {
		s.Update(float64(i))
	}
	got := roundTrip(t, s)
	if got.N() != 100 || got.Min() != 1 || got.Max() != 100 {
		t.Fatalf("n/min/max: %d %v %v", got.N(), got.Min(), got.Max())
	}
	for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got.Quantile(phi) != s.Quantile(phi) {
			t.Errorf("quantile %v changed", phi)
		}
	}
}

func TestSerdeRoundTripLarge(t *testing.T) {
	s := New(128)
	for i := 0; i < 500000; i++ {
		s.Update(float64((i * 31) % 99991))
	}
	got := roundTrip(t, s)
	if got.N() != s.N() || got.RetainedItems() != s.RetainedItems() {
		t.Fatal("structure changed in round trip")
	}
	for _, phi := range []float64{0.01, 0.5, 0.99} {
		if got.Quantile(phi) != s.Quantile(phi) {
			t.Errorf("quantile %v: %v != %v", phi, got.Quantile(phi), s.Quantile(phi))
		}
	}
}

func TestSerdeRestoredSketchKeepsWorking(t *testing.T) {
	s := New(64)
	for i := 0; i < 10000; i++ {
		s.Update(float64(i))
	}
	got := roundTrip(t, s)
	for i := 10000; i < 20000; i++ {
		got.Update(float64(i))
	}
	if got.N() != 20000 {
		t.Fatalf("N = %d", got.N())
	}
	eps := NormalizedRankError(64)
	med := got.Quantile(0.5)
	if med < (0.5-4*eps)*20000 || med > (0.5+4*eps)*20000 {
		t.Errorf("median after resume: %v", med)
	}
}

func TestSerdeRejectsCorruption(t *testing.T) {
	s := New(64)
	for i := 0; i < 100000; i++ {
		s.Update(float64(i))
	}
	base, _ := s.MarshalBinary()
	tests := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"short", func(b []byte) []byte { return b[:20] }, ErrCorrupt},
		{"magic", func(b []byte) []byte { b[1] = 'X'; return b }, ErrBadMagic},
		{"version", func(b []byte) []byte { b[4] = 9; return b }, ErrBadVersion},
		{"k not pow2", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], 100)
			return b
		}, ErrBadK},
		{"n mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 5)
			return b
		}, ErrBadN},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-8] }, ErrCorrupt},
		{"base too long", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[32:36], 1<<20)
			return b
		}, ErrCorrupt},
		{"bitmap beyond levels", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[40:48], 1<<63)
			return b
		}, ErrCorrupt},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), base...))
			if _, err := Unmarshal(data); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestSerdeRejectsUnsortedLevel(t *testing.T) {
	s := New(64)
	for i := 0; i < 100000; i++ {
		s.Update(float64(i))
	}
	data, _ := s.MarshalBinary()
	// Swap the first two items of the first level region. Levels start
	// after the base buffer.
	off := qheaderSize + 8*len(s.base)
	a := binary.LittleEndian.Uint64(data[off:])
	b := binary.LittleEndian.Uint64(data[off+8:])
	binary.LittleEndian.PutUint64(data[off:], b)
	binary.LittleEndian.PutUint64(data[off+8:], a)
	if _, err := Unmarshal(data); !errors.Is(err, ErrLevelSort) {
		t.Errorf("err = %v, want ErrLevelSort", err)
	}
}

// TestSerdeRejectsOverflowingLevelWeight: levels 62 and 63 of a k = 2
// sketch weigh 2^64 and 2^65, which wrap to 0 in a uint64 weight sum;
// without an overflow check a header claiming n = 1 (the base item
// alone) passes the n check with four level samples uncounted.
func TestSerdeRejectsOverflowingLevelWeight(t *testing.T) {
	data := make([]byte, qheaderSize, qheaderSize+5*8)
	copy(data, qserdeMagic)
	data[4] = qserdeVersion
	binary.LittleEndian.PutUint16(data[6:8], 2)
	binary.LittleEndian.PutUint64(data[8:16], 1)
	binary.LittleEndian.PutUint64(data[16:24], math.Float64bits(1))
	binary.LittleEndian.PutUint64(data[24:32], math.Float64bits(5))
	binary.LittleEndian.PutUint32(data[32:36], 1)
	binary.LittleEndian.PutUint32(data[36:40], 64)
	binary.LittleEndian.PutUint64(data[40:48], 1<<62|1<<63)
	for _, v := range []float64{5, 1, 2, 3, 4} {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	if _, err := Unmarshal(data); !errors.Is(err, ErrBadN) {
		t.Errorf("err = %v, want ErrBadN", err)
	}
}

func TestSerdeRejectsMinMaxViolation(t *testing.T) {
	s := New(64)
	for i := 0; i < 100000; i++ {
		s.Update(float64(i + 10))
	}
	data, _ := s.MarshalBinary()
	binary.LittleEndian.PutUint64(data[24:32], 0) // max := 0 < samples
	if _, err := Unmarshal(data); !errors.Is(err, ErrBadMinMax) {
		t.Errorf("err = %v, want ErrBadMinMax", err)
	}
}

func TestSerdeFuzzNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSerdeHeaderFuzzNeverPanics(t *testing.T) {
	// Mutate valid headers field-by-field: crashes here would mean a
	// validation gap rather than random-garbage luck.
	s := New(32)
	for i := 0; i < 5000; i++ {
		s.Update(float64(i))
	}
	base, _ := s.MarshalBinary()
	f := func(pos uint16, val byte) bool {
		data := append([]byte(nil), base...)
		data[int(pos)%qheaderSize] = val
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
