package hash

// The Θ sketch works in a hash space of [1, MaxThetaValue): MurmurHash3
// outputs are folded into 63 bits so that arithmetic on thresholds never
// overflows a signed 64-bit integer (DataSketches convention, which keeps
// the on-disk format compatible with Java longs). Zero is excluded so
// that 0 can mean "empty slot" in open-addressing tables.

// MaxThetaValue is one past the largest Θ-space hash; Θ = MaxThetaValue
// encodes the threshold 1.0 ("keep everything").
const MaxThetaValue uint64 = 1 << 63

// ThetaHashBytes hashes data into Θ space: uniform on [1, MaxThetaValue).
func ThetaHashBytes(data []byte, seed uint64) uint64 {
	h1, _ := Sum128(data, seed)
	return fold63(h1)
}

// ThetaHashUint64 hashes a uint64 item into Θ space.
func ThetaHashUint64(v, seed uint64) uint64 {
	h1, _ := SumUint64(v, seed)
	return fold63(h1)
}

// ThetaHashString hashes a string item into Θ space.
func ThetaHashString(s string, seed uint64) uint64 {
	h1, _ := SumString(s, seed)
	return fold63(h1)
}

// AppendThetaUint64Filtered hashes each value into Θ space and appends
// the hashes below hint to dst, returning the extended slice. It fuses
// SumUint64 and fold63 with the pre-filter comparison into one loop so
// batch ingestion pays no per-item call overhead (SumUint64 is past
// the inlining budget); outputs are bit-identical to ThetaHashUint64.
//
// On amd64 with AVX-512 the whole vectors of vs go through a vector
// kernel that hashes, folds, compares and packs eight values per step;
// the survivors keep their order and only the tail of fewer than eight
// runs the loop below, which is the reference the kernel's output
// equals.
func AppendThetaUint64Filtered(dst []uint64, vs []uint64, seed, hint uint64) []uint64 {
	if useVector {
		dst, vs = appendThetaVector(dst, vs, seed, hint)
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
		h := (h1 + h2) >> 1
		if h == 0 {
			h = 1
		}
		if h < hint {
			dst = append(dst, h)
		}
	}
	return dst
}

// FractionOf converts a Θ-space value to the fraction of the hash space
// below it, i.e. the [0,1] threshold the paper calls Θ.
func FractionOf(theta uint64) float64 {
	return float64(theta) / float64(MaxThetaValue)
}

func fold63(h uint64) uint64 {
	h >>= 1 // into [0, 2^63)
	if h == 0 {
		h = 1 // reserve 0 for "empty"
	}
	return h
}
