// Package model implements the paper's model-driven strategy selection: it
// predicts, for every candidate memoization strategy, the per-iteration
// operation count and the memory footprint — without materializing any
// intermediate tensor — and picks the cheapest strategy that fits a memory
// budget.
//
// The predictions need one nontrivial input: the number of *distinct* index
// tuples of the tensor projected onto each contiguous mode range (that is
// the element count of the corresponding semi-sparse intermediate). The
// package estimates all of these in a single pass over the nonzeros with a
// bottom-k (KMV) distinct-count sketch per range.
package model

import (
	"slices"
)

// mix64 is the splitmix64 finalizer, a strong 64-bit mixing function.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// kmv is a bottom-k sketch over a stream of 64-bit hashes: it retains the k
// smallest distinct hash values and estimates the distinct count of the
// stream as (k-1)/kth-smallest-normalized-hash. With k=1024 the standard
// error is about 1/√k ≈ 3%.
type kmv struct {
	k      int
	seen   map[uint64]struct{}
	hs     []uint64 // compaction and estimate scratch, reused across calls
	thresh uint64   // hashes >= thresh are ignored (cannot be in the bottom k)
	exact  bool     // true while the sketch has never overflowed
}

func newKMV(k int) *kmv {
	if k < 16 {
		k = 16
	}
	return &kmv{k: k, seen: make(map[uint64]struct{}, 2*k+1), thresh: ^uint64(0), exact: true}
}

// offer adds one hash to the sketch.
func (s *kmv) offer(h uint64) {
	if h >= s.thresh {
		return
	}
	if _, ok := s.seen[h]; ok {
		return
	}
	s.seen[h] = struct{}{}
	if len(s.seen) > 2*s.k {
		s.compact()
	}
}

// sorted returns the retained hashes in increasing order, in the reused
// scratch slice.
func (s *kmv) sorted() []uint64 {
	s.hs = s.hs[:0]
	for h := range s.seen {
		s.hs = append(s.hs, h)
	}
	slices.Sort(s.hs)
	return s.hs
}

// compact trims the retained set back to the k smallest hashes. The map is
// cleared and refilled rather than replaced, so a warm sketch compacts
// without allocating.
func (s *kmv) compact() {
	hs := s.sorted()[:s.k]
	s.thresh = hs[len(hs)-1] + 1
	clear(s.seen)
	for _, h := range hs {
		s.seen[h] = struct{}{}
	}
	s.exact = false
}

// estimate returns the estimated number of distinct hashes offered.
func (s *kmv) estimate() int64 {
	if s.exact || len(s.seen) < s.k {
		return int64(len(s.seen))
	}
	kth := s.sorted()[s.k-1]
	if kth == 0 {
		return int64(s.k)
	}
	// D ≈ (k-1) / U(k) with U(k) the k-th smallest hash normalized to (0,1).
	frac := float64(kth) / float64(^uint64(0))
	return int64(float64(s.k-1) / frac)
}
