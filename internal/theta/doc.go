// Package theta implements KMV-style Θ sketches for estimating the
// number of unique elements in a stream, following Bar-Yossef et al.
// (the paper's Algorithm 1) and the QuickSelect family that Apache
// DataSketches — and the paper's evaluation (§7.1) — use in production.
//
// All sketches operate in a 63-bit "Θ space": items are hashed with
// MurmurHash3 into (0, 2^63) and a threshold Θ in the same space
// determines which hashes are retained. The estimate is
// retained / (Θ/2^63). Two families are provided:
//
//   - KMV: Algorithm 1 of the paper. Keeps exactly the k smallest
//     hashes in a max-heap + membership map; Θ is the k-th smallest
//     hash once full and the estimate is (k-1)/Θ. It is the reference
//     implementation used by the error-analysis tests.
//
//   - QuickSelect: the HeapQuickSelectSketch family. Stores between k
//     and ~2k hashes in an open-addressing table of at most 2k slots,
//     as DataSketches does; at 15/16 load it quickselects the (k+1)-th
//     smallest value as the new Θ and discards larger entries, working
//     on a transient copy (on the stack for k ≤ 512). It keeps nothing
//     but its samples. This is the fast variant used as the global and
//     baseline sketch in the evaluation.
//
// The package also provides the set operations a downstream user
// expects from a Θ sketch library (Union, Intersection, AnotB), compact
// immutable snapshots with confidence bounds (ordered on demand, see
// Compact), and binary serialization. Concurrency adapters for the generic framework of
// package core live in concurrent.go.
package theta
