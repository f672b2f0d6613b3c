// Package hash implements the MurmurHash3 x64 128-bit hash function.
//
// MurmurHash3 is the hash family used by Apache DataSketches: its outputs
// are uniformly distributed over the 64-bit space, which is the property
// the Θ sketch analysis (order statistics over uniform variables) relies
// on. The implementation is self-contained and allocation-free.
//
// The two uint64 batch loops, AppendSumUint64 and
// AppendThetaUint64Filtered, have a vector kernel on amd64
// (kernel_amd64.s): AVX-512 hashes eight values per step. It is chosen
// once at init from CPUID and XGETBV, with no setting; the Go loops are
// the reference its output equals bit for bit, and the only code on
// every other architecture and CPU.
package hash

import (
	"encoding/binary"
	"unsafe"
)

const (
	c1 = 0x87c37b91114253d5
	c2 = 0x4cf5ad432745937f
)

// DefaultSeed is the seed DataSketches uses for all library sketches.
// Sketches must share a seed to be mergeable; the seed is part of the
// sketch "identity".
const DefaultSeed uint64 = 9001

// useVector routes AppendSumUint64 and AppendThetaUint64Filtered
// through the vector kernels. kernel_amd64.go sets it once at init from
// the CPU's features; it is false on every other architecture. Tests
// flip it to run both paths.
var useVector bool

// lanes is the number of values one vector-kernel step hashes; a batch
// tail shorter than this runs the Go loop.
const lanes = 8

// Sum128 computes the 128-bit MurmurHash3 (x64 variant) of data with the
// given seed and returns the two 64-bit halves.
func Sum128(data []byte, seed uint64) (h1, h2 uint64) {
	h1, h2 = seed, seed
	n := len(data)

	// Body: 16-byte blocks.
	for len(data) >= 16 {
		k1 := binary.LittleEndian.Uint64(data)
		k2 := binary.LittleEndian.Uint64(data[8:])
		data = data[16:]

		k1 *= c1
		k1 = rotl(k1, 31)
		k1 *= c2
		h1 ^= k1
		h1 = rotl(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= c2
		k2 = rotl(k2, 33)
		k2 *= c1
		h2 ^= k2
		h2 = rotl(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	// Tail: up to 15 remaining bytes.
	var k1, k2 uint64
	switch len(data) {
	case 15:
		k2 ^= uint64(data[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(data[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(data[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(data[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(data[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(data[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(data[8])
		k2 *= c2
		k2 = rotl(k2, 33)
		k2 *= c1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(data[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(data[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(data[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(data[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(data[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(data[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(data[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(data[0])
		k1 *= c1
		k1 = rotl(k1, 31)
		k1 *= c2
		h1 ^= k1
	}

	// Finalization.
	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// SumUint64 hashes a single uint64 value, treating it as its 8-byte
// little-endian encoding (matching DataSketches' update(long)). The
// tail and finalization rounds are specialised for the fixed 8-byte
// length: reassembling the little-endian bytes yields v itself, so the
// encode/decode round trip of the generic path is skipped entirely.
// This is the ingestion hot path for numeric streams.
func SumUint64(v, seed uint64) (uint64, uint64) {
	h1, h2 := seed, seed
	k1 := v * c1
	k1 = rotl(k1, 31)
	k1 *= c2
	h1 ^= k1
	h1 ^= 8
	h2 ^= 8
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// AppendSumUint64 is the batch form of SumUint64 for sketches that key
// on the first hash word: it appends Sum128's h1 of each value to dst
// and returns the extended slice. The murmur rounds are written out in
// the loop body because SumUint64 is past the compiler's inlining
// budget, and a per-item call is the dominant overhead of a fused
// batch pass. Outputs are bit-identical to SumUint64.
//
// On amd64 with AVX-512 the whole vectors of vs go through a vector
// kernel (kernel_amd64.s) and only the tail runs the loop below; the
// loop is the reference the kernel's output equals.
func AppendSumUint64(dst []uint64, vs []uint64, seed uint64) []uint64 {
	if useVector {
		dst, vs = appendSumVector(dst, vs, seed)
	}
	for _, v := range vs {
		k1 := v * c1
		k1 = k1<<31 | k1>>33
		k1 *= c2
		h1 := seed ^ k1
		h2 := seed
		h1 ^= 8
		h2 ^= 8
		h1 += h2
		h2 += h1
		h1 = fmix64(h1)
		h2 = fmix64(h2)
		dst = append(dst, h1+h2)
	}
	return dst
}

// Sum128String hashes the raw bytes of s with zero allocations for any
// length: the string's backing array is viewed in place (read-only, as
// Sum128 never writes through its argument) instead of being copied to
// a []byte.
func Sum128String(s string, seed uint64) (uint64, uint64) {
	if len(s) == 0 {
		return Sum128(nil, seed)
	}
	return Sum128(unsafe.Slice(unsafe.StringData(s), len(s)), seed)
}

// SumString hashes the raw bytes of s without allocating.
func SumString(s string, seed uint64) (uint64, uint64) {
	return Sum128String(s, seed)
}

func rotl(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

// fmix64 is the 64-bit finalization mix: it forces all bits of the input
// to avalanche so the output is uniform even for structured inputs.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
