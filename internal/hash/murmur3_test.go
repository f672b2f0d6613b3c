package hash

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

// TestSum128KnownVectors pins the implementation to reference outputs of
// MurmurHash3 x64 128 (seed 0), computed from the canonical C++
// implementation. If these change, serialized sketches become unreadable.
func TestSum128KnownVectors(t *testing.T) {
	tests := []struct {
		in     string
		seed   uint64
		h1, h2 uint64
	}{
		{"", 0, 0x0000000000000000, 0x0000000000000000},
		{"a", 0, 0x85555565f6597889, 0xe6b53a48510e895a},
		{"ab", 0, 0x938b11ea16ed1b2e, 0xe65ea7019b52d4ad},
		{"abc", 0, 0xb4963f3f3fad7867, 0x3ba2744126ca2d52},
		{"abcd", 0, 0xb87bb7d64656cd4f, 0xf2003e886073e875},
		{"hello, world", 0, 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		{"The quick brown fox jumps over the lazy dog", 0,
			0xe34bbc7bbc071b6c, 0x7a433ca9c49a9347},
	}
	for _, tc := range tests {
		h1, h2 := Sum128([]byte(tc.in), tc.seed)
		if h1 != tc.h1 || h2 != tc.h2 {
			t.Errorf("Sum128(%q, %d) = (%#x, %#x), want (%#x, %#x)",
				tc.in, tc.seed, h1, h2, tc.h1, tc.h2)
		}
	}
}

func TestSum128SeedChangesOutput(t *testing.T) {
	in := []byte("some input")
	a1, a2 := Sum128(in, 0)
	b1, b2 := Sum128(in, DefaultSeed)
	if a1 == b1 && a2 == b2 {
		t.Fatal("different seeds produced identical hashes")
	}
}

func TestSum128AllTailLengths(t *testing.T) {
	// Exercise every tail-switch arm (lengths 0..16) plus a multi-block
	// input, and verify determinism and that all outputs are distinct.
	data := []byte("0123456789abcdefghijklmnopqrstuv")
	seen := make(map[[2]uint64]int)
	for n := 0; n <= len(data); n++ {
		h1, h2 := Sum128(data[:n], DefaultSeed)
		g1, g2 := Sum128(data[:n], DefaultSeed)
		if h1 != g1 || h2 != g2 {
			t.Fatalf("length %d: non-deterministic hash", n)
		}
		key := [2]uint64{h1, h2}
		if prev, dup := seen[key]; dup {
			t.Fatalf("lengths %d and %d collide", prev, n)
		}
		seen[key] = n
	}
}

func TestSumUint64MatchesBytes(t *testing.T) {
	f := func(v, seed uint64) bool {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		a1, a2 := Sum128(buf[:], seed)
		b1, b2 := SumUint64(v, seed)
		return a1 == b1 && a2 == b2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumStringMatchesBytes(t *testing.T) {
	f := func(s string, seed uint64) bool {
		a1, a2 := Sum128([]byte(s), seed)
		b1, b2 := SumString(s, seed)
		return a1 == b1 && a2 == b2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumStringLong(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i)
	}
	a1, a2 := Sum128(long, 7)
	b1, b2 := SumString(string(long), 7)
	if a1 != b1 || a2 != b2 {
		t.Fatal("long-string path disagrees with byte path")
	}
}

// TestThetaHashUniformity checks that Θ-space hashes of sequential
// integers look uniform on [0, 2^63): the empirical mean of the fraction
// must be near 0.5 and a coarse 16-bucket chi-square must be sane. This
// is the property the sketch error analysis depends on.
func TestThetaHashUniformity(t *testing.T) {
	const n = 200000
	var sum float64
	buckets := make([]int, 16)
	for i := uint64(0); i < n; i++ {
		h := ThetaHashUint64(i, DefaultSeed)
		if h == 0 || h >= MaxThetaValue {
			t.Fatalf("hash %d out of Θ space", h)
		}
		f := FractionOf(h)
		sum += f
		buckets[int(f*16)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean fraction = %v, want ~0.5", mean)
	}
	expect := float64(n) / 16
	var chi2 float64
	for _, c := range buckets {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 15 degrees of freedom; 99.9th percentile ≈ 37.7.
	if chi2 > 40 {
		t.Errorf("chi-square = %v, hashes look non-uniform", chi2)
	}
}

func TestThetaHashNeverZero(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		if ThetaHashUint64(i, i) == 0 {
			t.Fatalf("Θ hash of %d is zero", i)
		}
	}
}

func TestThetaHashStringAgreesWithBytes(t *testing.T) {
	if ThetaHashString("abc", 1) != ThetaHashBytes([]byte("abc"), 1) {
		t.Fatal("string and byte Θ hashes disagree")
	}
}

func TestFractionOf(t *testing.T) {
	tests := []struct {
		theta uint64
		want  float64
	}{
		{MaxThetaValue, 1.0},
		{MaxThetaValue / 2, 0.5},
		{MaxThetaValue / 4, 0.25},
	}
	for _, tc := range tests {
		if got := FractionOf(tc.theta); got != tc.want {
			t.Errorf("FractionOf(%d) = %v, want %v", tc.theta, got, tc.want)
		}
	}
}

func BenchmarkSum128_8B(b *testing.B) {
	data := []byte("8bytes!!")
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		Sum128(data, DefaultSeed)
	}
}

func BenchmarkSum128_64B(b *testing.B) {
	data := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		Sum128(data, DefaultSeed)
	}
}

func BenchmarkThetaHashUint64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ThetaHashUint64(uint64(i), DefaultSeed)
	}
}

// TestSumUint64MatchesGenericPath pins the specialised SumUint64 fast
// path to the generic Sum128 of the value's 8-byte little-endian
// encoding — the two must agree bit for bit or serialized sketches
// built from numeric streams stop matching.
func TestSumUint64MatchesGenericPath(t *testing.T) {
	check := func(v, seed uint64) bool {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		g1, g2 := Sum128(buf[:], seed)
		f1, f2 := SumUint64(v, seed)
		return g1 == f1 && g2 == f2
	}
	for _, v := range []uint64{0, 1, 8, math.MaxUint64, 0xdeadbeef} {
		for _, seed := range []uint64{0, DefaultSeed, 12345} {
			if !check(v, seed) {
				t.Errorf("SumUint64(%#x, %d) diverges from Sum128 of LE bytes", v, seed)
			}
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestSum128StringMatchesBytes pins the zero-copy string path to the
// []byte path for all lengths (empty, tail-only, multi-block).
func TestSum128StringMatchesBytes(t *testing.T) {
	data := "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-_."
	for n := 0; n <= len(data); n++ {
		s := data[:n]
		b1, b2 := Sum128([]byte(s), DefaultSeed)
		s1, s2 := Sum128String(s, DefaultSeed)
		if b1 != s1 || b2 != s2 {
			t.Errorf("length %d: Sum128String diverges from Sum128", n)
		}
	}
}

// TestSum128StringZeroAllocs pins the string hash at zero allocations
// for any length, including strings past the old 64-byte copy cutoff.
func TestSum128StringZeroAllocs(t *testing.T) {
	short := "user-42"
	long := "a-much-longer-key-that-exceeds-the-sixty-four-byte-stack-buffer-threshold-easily"
	var sink uint64
	if avg := testing.AllocsPerRun(100, func() {
		h1, _ := Sum128String(short, DefaultSeed)
		h2, _ := Sum128String(long, DefaultSeed)
		sink = h1 ^ h2
	}); avg != 0 {
		t.Errorf("Sum128String allocates %.1f allocs/op, want 0", avg)
	}
	_ = sink
}

// TestAppendBatchHashesMatchScalar pins the fused batch loops to their
// scalar counterparts element for element, including the Θ-space fold
// and the hint filter, on the Go loops and on the vector kernels.
func TestAppendBatchHashesMatchScalar(t *testing.T) {
	withPaths(t, func(t *testing.T) {
		vs := make([]uint64, 300)
		for i := range vs {
			vs[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		h1s := AppendSumUint64(nil, vs, DefaultSeed)
		if len(h1s) != len(vs) {
			t.Fatalf("AppendSumUint64 returned %d hashes for %d values", len(h1s), len(vs))
		}
		for i, v := range vs {
			if want, _ := SumUint64(v, DefaultSeed); h1s[i] != want {
				t.Fatalf("AppendSumUint64[%d] = %#x, want %#x", i, h1s[i], want)
			}
		}
		hint := MaxThetaValue / 3
		got := AppendThetaUint64Filtered(nil, vs, DefaultSeed, hint)
		var want []uint64
		for _, v := range vs {
			if h := ThetaHashUint64(v, DefaultSeed); h < hint {
				want = append(want, h)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("filtered batch kept %d hashes, scalar path kept %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("filtered batch[%d] = %#x, want %#x", i, got[i], want[i])
			}
		}
	})
}
