package hash

import "slices"

// thetaBlock bounds one thetaKernel call: its survivors land in a stack
// array of this many values, so the kernel never needs more of the
// caller's dst than the survivors themselves. The array is zeroed on
// every call, so it is kept small: at 512 values the zeroing made an
// 8-value batch slower than the Go loop.
const thetaBlock = 64

func init() { useVector = hasAVX512() }

// hasAVX512 reports whether the CPU has AVX512F, AVX512DQ and POPCNT,
// and whether the OS saves the SSE, AVX, opmask and ZMM register state
// (XCR0 bits 1, 2, 5, 6 and 7). An OS that enables the ZMM state only
// on first use reads as without it.
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, popcnt = 1 << 27, 1 << 23
	if ecx1&osxsave == 0 || ecx1&popcnt == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f, avx512dq = 1 << 16, 1 << 17
	return ebx7&avx512f != 0 && ebx7&avx512dq != 0
}

// appendThetaVector runs the whole vectors of vs through thetaKernel,
// appends the survivors to dst and returns the values left for the Go
// loop (fewer than lanes).
func appendThetaVector(dst, vs []uint64, seed, hint uint64) ([]uint64, []uint64) {
	var out [thetaBlock]uint64
	for len(vs) >= lanes {
		n := min(len(vs), thetaBlock) &^ (lanes - 1)
		k := thetaKernel(&out[0], &vs[0], n, seed, hint)
		dst = append(dst, out[:k]...)
		vs = vs[n:]
	}
	return dst, vs
}

// appendSumVector runs the whole vectors of vs through sumKernel,
// writing straight into dst grown by exactly their count, and returns
// the values left for the Go loop (fewer than lanes).
func appendSumVector(dst, vs []uint64, seed uint64) ([]uint64, []uint64) {
	n := len(vs) &^ (lanes - 1)
	if n == 0 {
		return dst, vs
	}
	m := len(dst)
	dst = slices.Grow(dst, n)[:m+n]
	sumKernel(&dst[m], &vs[0], n, seed)
	return dst, vs[n:]
}

// thetaKernel hashes vs[:n] (n a multiple of lanes) into Θ space and
// writes the hashes below hint to out, in order; it returns their
// count. out must hold n values.
//
//go:noescape
func thetaKernel(out *uint64, vs *uint64, n int, seed, hint uint64) int

// sumKernel writes Sum128's h1 of vs[:n] (n a multiple of lanes) to
// out[:n].
//
//go:noescape
func sumKernel(out *uint64, vs *uint64, n int, seed uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
