package model

import (
	"testing"

	"adatm/internal/tensor"
)

// TestEstimatorRangesPinned pins the estimator's per-range distinct counts
// to a recorded table, for a sketch small enough that most ranges overflow
// (k = 32) and one large enough that every range stays exact, so a change
// to the sketch's bookkeeping cannot move an estimate.
func TestEstimatorRangesPinned(t *testing.T) {
	x := tensor.RandomClustered(4, 60, 3000, 0.7, 7)
	// Ranges in (lo, hi) order: [0,1) [0,2) [0,3) [0,4) [1,2) [1,3) [1,4)
	// [2,3) [2,4) [3,4).
	want := map[int][]int64{
		32:   {60, 494, 1534, 2929, 58, 507, 1369, 60, 635, 60},
		8192: {60, 527, 1572, 2929, 58, 532, 1531, 60, 527, 60},
	}
	for k, counts := range want {
		for i, r := range NewEstimator(x, k).Ranges() {
			if r.Count != counts[i] {
				t.Errorf("k=%d range [%d,%d): estimate %d, recorded %d", k, r.Lo, r.Hi, r.Count, counts[i])
			}
		}
	}
	for i, r := range NewExactEstimator(x).Ranges() {
		if r.Count != want[8192][i] {
			t.Errorf("exact range [%d,%d): %d, recorded %d", r.Lo, r.Hi, r.Count, want[8192][i])
		}
	}
}

// Once a sketch has compacted, offering more hashes (and compacting again)
// allocates nothing: the open-addressing set is cleared and refilled in
// place, and quickselect reorders the retained hashes in the scratch slice
// kept on the sketch. The hashes descend, so every offer is retained and
// every 2k+1st one compacts.
func TestKMVOfferAllocFree(t *testing.T) {
	s := newKMV(64)
	h := ^uint64(0) >> 1
	offer := func(n int) {
		for i := 0; i < n; i++ {
			s.offer(h)
			h--
		}
	}
	offer(1000)
	warm := s.thresh
	if n := testing.AllocsPerRun(20, func() { offer(1000) }); n != 0 {
		t.Errorf("warm offer allocates %v per 1000 offers", n)
	}
	if s.thresh >= warm {
		t.Fatal("no compaction while measured")
	}
}
