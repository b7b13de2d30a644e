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

import "math/bits"

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
//
// The retained hashes live in a linear-probing set: a power-of-two table
// with 0 marking an empty slot (hash 0 itself is kept in a flag). The set
// never holds more than 2k+1 hashes, and the table has at least twice that
// many slots, so its load stays at or under ½ and it is never resized.
type kmv struct {
	k      int
	slots  []uint64
	shift  uint     // slot of h: (h·fibMul) >> shift
	n      int      // retained hashes, 0 included
	zero   bool     // hash 0 is retained
	hs     []uint64 // compaction and estimate scratch, reused across calls
	thresh uint64   // hashes >= thresh are ignored (cannot be in the bottom k)
	exact  bool     // true while the sketch has never overflowed
}

// fibMul is 2⁶⁴/φ: multiplying by it and keeping the top bits spreads
// clustered hashes (a compacted sketch keeps only small ones) over the
// table.
const fibMul = 0x9e3779b97f4a7c15

func newKMV(k int) *kmv {
	if k < 16 {
		k = 16
	}
	logSlots := bits.Len(uint(2*(2*k+1) - 1))
	return &kmv{
		k: k, slots: make([]uint64, 1<<logSlots), shift: uint(64 - logSlots),
		thresh: ^uint64(0), exact: true,
	}
}

// insert adds h to the set and reports whether it was new.
func (s *kmv) insert(h uint64) bool {
	if h == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	mask := uint64(len(s.slots) - 1)
	for i := (h * fibMul) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case h:
			return false
		case 0:
			s.slots[i] = h
			return true
		}
	}
}

// offer adds one hash to the sketch.
func (s *kmv) offer(h uint64) {
	if h >= s.thresh || !s.insert(h) {
		return
	}
	s.n++
	if s.n > 2*s.k {
		s.compact()
	}
}

// retained returns the retained hashes, unordered, in the reused scratch
// slice (allocated on first use: a sketch that stays exact never needs it).
func (s *kmv) retained() []uint64 {
	if s.hs == nil {
		s.hs = make([]uint64, 0, 2*s.k+1)
	}
	s.hs = s.hs[:0]
	if s.zero {
		s.hs = append(s.hs, 0)
	}
	for _, h := range s.slots {
		if h != 0 {
			s.hs = append(s.hs, h)
		}
	}
	return s.hs
}

// compact trims the retained set back to the k smallest hashes. The table
// is cleared and refilled rather than replaced, so compaction never
// allocates.
func (s *kmv) compact() {
	hs := s.retained()
	s.thresh = selectKth(hs, s.k-1) + 1
	clear(s.slots)
	s.zero = false
	for _, h := range hs[:s.k] {
		s.insert(h)
	}
	s.n = s.k
	s.exact = false
}

// estimate returns the estimated number of distinct hashes offered.
func (s *kmv) estimate() int64 {
	if s.exact || s.n < s.k {
		return int64(s.n)
	}
	kth := selectKth(s.retained(), s.k-1)
	if kth == 0 {
		return int64(s.k)
	}
	// D ≈ (k-1) / U(k) with U(k) the k-th smallest hash normalized to (0,1).
	frac := float64(kth) / float64(^uint64(0))
	return int64(float64(s.k-1) / frac)
}

// selectKth returns the value a full sort would put at hs[k], reordering
// hs so that hs[:k] holds values at most it (Hoare's quickselect with a
// median-of-three pivot).
func selectKth(hs []uint64, k int) uint64 {
	lo, hi := 0, len(hs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if hs[mid] < hs[lo] {
			hs[mid], hs[lo] = hs[lo], hs[mid]
		}
		if hs[hi] < hs[lo] {
			hs[hi], hs[lo] = hs[lo], hs[hi]
		}
		if hs[hi] < hs[mid] {
			hs[hi], hs[mid] = hs[mid], hs[hi]
		}
		pivot := hs[mid]
		i, j := lo, hi
		for i <= j {
			for hs[i] < pivot {
				i++
			}
			for hs[j] > pivot {
				j--
			}
			if i <= j {
				hs[i], hs[j] = hs[j], hs[i]
				i++
				j--
			}
		}
		// Now hs[lo..j] <= pivot, hs[i..hi] >= pivot, and anything
		// between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return hs[k]
		}
	}
	return hs[k]
}
