//go:build !amd64

package hash

// Off amd64 there is no vector kernel: useVector stays false and the
// batch functions run their Go loops.

func appendThetaVector(dst, vs []uint64, _, _ uint64) ([]uint64, []uint64) { return dst, vs }

func appendSumVector(dst, vs []uint64, _ uint64) ([]uint64, []uint64) { return dst, vs }
