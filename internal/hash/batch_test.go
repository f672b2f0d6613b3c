package hash

import (
	"encoding/binary"
	"slices"
	"testing"
)

// withPaths runs f on the Go loops and then on the vector kernels,
// skipping the kernel half on a CPU without them.
func withPaths(t *testing.T, f func(t *testing.T)) {
	has := useVector
	t.Cleanup(func() { useVector = has })
	t.Run("go", func(t *testing.T) {
		useVector = false
		f(t)
	})
	t.Run("vector", func(t *testing.T) {
		if !has {
			t.Skip("the CPU has no vector kernel")
		}
		useVector = true
		f(t)
	})
}

// zeroHashInput returns a seed and a value whose h1 is 0, so its Θ hash
// folds to 0 and is lifted to 1. The finalizer and the multiplies are
// bijections, so the pair is built backwards from the sum.
func zeroHashInput() (v, seed uint64) {
	inv := func(c uint64) uint64 { // c odd: Newton's iteration mod 2^64
		x := c
		for range 6 {
			x *= 2 - c*x
		}
		return x
	}
	unfmix := func(k uint64) uint64 { // x ^= x>>33 is its own inverse
		k ^= k >> 33
		k *= inv(0xc4ceb9fe1a85ec53)
		k ^= k >> 33
		k *= inv(0xff51afd7ed558ccd)
		k ^= k >> 33
		return k
	}
	var x uint64 = 0x0123456789abcdef // fmix64(h1) before the final sum
	h1 := unfmix(x)
	s8 := unfmix(-x) - h1 // h2 = s8 + h1 and fmix64(h2) = -x
	k1 := (h1 - s8) ^ s8  // h1 = (k1 ^ s8) + s8
	k1 *= inv(c2)
	k1 = k1>>31 | k1<<33
	return k1 * inv(c1), s8 ^ 8
}

func TestZeroHashInput(t *testing.T) {
	v, seed := zeroHashInput()
	if h1, _ := SumUint64(v, seed); h1 != 0 {
		t.Fatalf("h1 = %#x, want 0", h1)
	}
	if h := ThetaHashUint64(v, seed); h != 1 {
		t.Fatalf("Θ hash = %#x, want 1", h)
	}
}

// FuzzThetaBatch holds the vector kernels to the Go loops: the same
// slices from both batch functions, whatever the seed, hint, values,
// dst prefix and spare capacity (none, exactly the result, or ample).
func FuzzThetaBatch(f *testing.F) {
	zv, zseed := zeroHashInput()
	vals := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	// Across several of the amd64 kernel's 64-value blocks (thetaBlock),
	// and not a multiple of lanes.
	seq := make([]uint64, 4*64+7)
	for i := range seq {
		seq[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	withZero := append(slices.Clone(seq[:20]), zv, zv)
	for _, hint := range []uint64{0, 1, MaxThetaValue >> 10, MaxThetaValue, ^uint64(0)} {
		f.Add(DefaultSeed, hint, []byte(nil), uint8(0), uint8(0))
		f.Add(DefaultSeed, hint, vals(seq[:lanes-3]...), uint8(3), uint8(1))
		f.Add(DefaultSeed, hint, vals(seq[:4*lanes+5]...), uint8(1), uint8(2))
		f.Add(DefaultSeed, hint, vals(seq...), uint8(0), uint8(1))
		f.Add(zseed, hint, vals(withZero...), uint8(2), uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed, hint uint64, data []byte, prefix, spare uint8) {
		if !useVector {
			t.Skip("the CPU has no vector kernel")
		}
		vs := make([]uint64, len(data)/8)
		for i := range vs {
			vs[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		dst := make([]uint64, prefix%16)
		for i := range dst {
			dst[i] = ^uint64(i)
		}
		switch spare % 3 {
		case 1: // room for exactly what the Go loop keeps
			useVector = false
			n := len(AppendThetaUint64Filtered(nil, vs, seed, hint))
			useVector = true
			dst = slices.Grow(dst, n)[: len(dst) : len(dst)+n]
		case 2:
			dst = slices.Grow(dst, len(vs)+2*lanes)
		}
		run := func(vec bool) (theta, sum []uint64) {
			useVector = vec
			defer func() { useVector = true }()
			clone := func() []uint64 { return append(make([]uint64, 0, cap(dst)), dst...) }
			return AppendThetaUint64Filtered(clone(), vs, seed, hint), AppendSumUint64(clone(), vs, seed)
		}
		goTheta, goSum := run(false)
		vecTheta, vecSum := run(true)
		if !slices.Equal(goTheta, vecTheta) {
			t.Fatalf("AppendThetaUint64Filtered: kernel %#x, Go loop %#x", vecTheta, goTheta)
		}
		if !slices.Equal(goSum, vecSum) {
			t.Fatalf("AppendSumUint64: kernel %#x, Go loop %#x", vecSum, goSum)
		}
	})
}

// TestBatchSteadyStateAllocs: with dst's capacity reused, neither path
// allocates, and neither needs more capacity than its output.
func TestBatchSteadyStateAllocs(t *testing.T) {
	vs := make([]uint64, 4096+3)
	for i := range vs {
		vs[i] = uint64(i)
	}
	withPaths(t, func(t *testing.T) {
		hint := MaxThetaValue >> 10
		kept := len(AppendThetaUint64Filtered(nil, vs, DefaultSeed, hint))
		theta := make([]uint64, 0, kept)
		sum := make([]uint64, 0, len(vs))
		if avg := testing.AllocsPerRun(50, func() {
			theta = AppendThetaUint64Filtered(theta[:0], vs, DefaultSeed, hint)
			sum = AppendSumUint64(sum[:0], vs, DefaultSeed)
		}); avg != 0 {
			t.Fatalf("steady state allocates %.1f allocs/op, want 0", avg)
		}
	})
}

var batchSink []uint64

// BenchmarkThetaBatch prices the fused hash and pre-filter over 4 096
// values at the hint the benchmark's hash rung uses (1/1024 survive),
// on the Go loop and on the vector kernel.
func BenchmarkThetaBatch(b *testing.B) {
	benchBatch(b, func(dst, vs []uint64) []uint64 {
		return AppendThetaUint64Filtered(dst, vs, DefaultSeed, MaxThetaValue>>10)
	})
}

// BenchmarkSumBatch prices AppendSumUint64 over 4 096 values.
func BenchmarkSumBatch(b *testing.B) {
	benchBatch(b, func(dst, vs []uint64) []uint64 { return AppendSumUint64(dst, vs, DefaultSeed) })
}

func benchBatch(b *testing.B, f func(dst, vs []uint64) []uint64) {
	vs := make([]uint64, 4096)
	for i := range vs {
		vs[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	dst := make([]uint64, 0, len(vs))
	has := useVector
	b.Cleanup(func() { useVector = has })
	for _, vec := range []bool{false, true} {
		name := map[bool]string{false: "go", true: "vector"}[vec]
		b.Run(name, func(b *testing.B) {
			if vec && !has {
				b.Skip("the CPU has no vector kernel")
			}
			useVector = vec
			for b.Loop() {
				dst = f(dst[:0], vs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/item")
		})
	}
	batchSink = dst
}
