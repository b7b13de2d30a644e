package memo

import (
	"adatm/internal/tensor"
)

// sortByKeys stable-sorts perm (a permutation of parent element ids) by the
// lexicographic order of the given key columns using LSD radix passes: keys
// are processed from least to most significant, each with a stable counting
// sort. Small modes (< 2^16) take one pass over dim buckets; larger modes
// take two 16-bit passes. This replaces comparison sorting in the symbolic
// phase, cutting its cost from O(E·log E·K) comparisons to O(E·K) moves.
// The radix passes ping-pong between perm and one scratch buffer of the same
// length, which is returned (contents unspecified) so the caller can reuse it.
func sortByKeys(perm []int32, keys [][]tensor.Index, dims []int) []int32 {
	scratch := make([]int32, len(perm))
	if len(perm) < 2 {
		return scratch
	}
	src, dst := perm, scratch
	for k := len(keys) - 1; k >= 0; k-- {
		key := keys[k]
		dim := dims[k]
		if dim <= 1<<16 {
			countingPass(src, dst, func(e int32) uint32 { return uint32(key[e]) }, dim)
			src, dst = dst, src
		} else {
			countingPass(src, dst, func(e int32) uint32 { return uint32(key[e]) & 0xffff }, 1<<16)
			src, dst = dst, src
			countingPass(src, dst, func(e int32) uint32 { return uint32(key[e]) >> 16 }, (dim>>16)+1)
			src, dst = dst, src
		}
	}
	// After an odd number of passes the result lives in the scratch buffer;
	// copy it back into the caller's slice.
	if &src[0] != &perm[0] {
		copy(perm, src)
	}
	return scratch
}

// countingPass stable-sorts src into dst by bucket(e) over nbuckets.
func countingPass(src, dst []int32, bucket func(int32) uint32, nbuckets int) {
	counts := make([]int32, nbuckets+1)
	for _, e := range src {
		counts[bucket(e)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for _, e := range src {
		b := bucket(e)
		dst[counts[b]] = e
		counts[b]++
	}
}
