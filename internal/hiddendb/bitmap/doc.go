// Package bitmap implements roaring-style compressed bitmaps over
// uint32 values: the posting-list representation behind
// internal/hiddendb's conjunctive query engine.
//
// A Bitmap partitions the 32-bit value space by the high 16 bits into up
// to 65536 chunks; each populated chunk is stored as one of three
// container shapes chosen by density:
//
//   - array: a sorted []uint16 of the low bits, for sparse chunks
//     (cardinality <= 4096);
//   - bitmap: 1024 uint64 words (one bit per possible low value), for
//     dense chunks;
//   - run: sorted [start,last] intervals, for clustered chunks
//     (produced by Optimize when smaller than either alternative).
//
// Containers carry their cardinality, so Cardinality is O(#containers)
// and the exact COUNT of an intersection falls out of the final result
// for free. Intersection works container-by-container in ascending key
// order with word-level AND kernels (bits.OnesCount64 loops over the
// 1024-word blocks) and shape-specialized array/run kernels; because
// keys are processed in ascending order, results stream out smallest
// value first — rank order, when the values are rank positions. Array
// containers are filtered in place without branching on membership, as
// Roaring does: an array is probed against a bitmap operand's words, or
// against another array spread into the result container's spare word
// block, unless that array is over 64 times larger and is galloped.
//
// The package is allocation-disciplined: IntersectInto writes into a
// caller-owned destination Bitmap whose container storage is recycled
// across calls (Reset keeps capacity), so a pooled destination makes
// repeated intersections allocation-free at steady state.
//
// Rank/select are first-class: Select(i) returns the i-th smallest
// value in O(#containers + 64), Rank(x) counts values below x, and
// Iterator streams values in ascending order without allocating.
package bitmap
