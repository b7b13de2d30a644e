package model

import (
	"adatm/internal/tensor"
)

// Estimator provides (estimated or exact) distinct-tuple counts for every
// contiguous mode range [lo, hi) of a tensor — the element counts of the
// candidate semi-sparse intermediates. One pass over the nonzeros feeds a
// rolling hash per range start into a KMV sketch per range.
type Estimator struct {
	order int
	nnz   int64
	dims  []int
	// counts[rangeID(lo,hi)] = estimated distinct tuples of modes [lo,hi).
	counts []int64
	exact  bool
}

// rangeID maps [lo, hi) with 0 <= lo < hi <= n to a dense table index.
func rangeID(lo, hi, n int) int { return lo*n + hi - 1 }

// NewEstimator builds the range table with bottom-k sketches of size k
// (k <= 0 selects the default 1024). The pass costs O(nnz · N²) hash
// operations and O(N² · k) memory, plus one bit per index of every mode.
func NewEstimator(x *tensor.COO, k int) *Estimator {
	if k <= 0 {
		k = 1024
	}
	n := x.Order()
	e := &Estimator{order: n, nnz: int64(x.NNZ()), dims: append([]int(nil), x.Dims...), counts: make([]int64, n*n)}
	sketches := make([]*kmv, n*n)
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi <= n; hi++ {
			sketches[rangeID(lo, hi, n)] = newKMV(k)
		}
	}
	// A single-mode range hashes one index injectively (mix64 is a
	// bijection), and offering a hash the sketch has already seen changes
	// nothing, so each index goes to its [lo, lo+1) sketch on its first
	// occurrence only: one bit per index of each mode.
	seen := make([][]uint64, n)
	for m := range seen {
		seen[m] = make([]uint64, (x.Dims[m]+63)/64)
	}
	nnz := x.NNZ()
	for t := 0; t < nnz; t++ {
		for lo := 0; lo < n; lo++ {
			idx := uint32(x.Inds[lo][t])
			h := mix64(0x9e3779b97f4a7c15 ^ (uint64(idx) + 0x632be59bd9b4e019))
			first := true // an index outside the mode's bits is always offered
			if w, bit := int(idx/64), uint64(1)<<(idx%64); w < len(seen[lo]) {
				first = seen[lo][w]&bit == 0
				seen[lo][w] |= bit
			}
			if first {
				sketches[rangeID(lo, lo+1, n)].offer(h)
			}
			for hi := lo + 2; hi <= n; hi++ {
				h = mix64(h ^ (uint64(uint32(x.Inds[hi-1][t])) + 0x632be59bd9b4e019))
				sketches[rangeID(lo, hi, n)].offer(h)
			}
		}
	}
	for id, s := range sketches {
		if s != nil {
			e.counts[id] = s.estimate()
		}
	}
	// Full-range projection is the nonzero count itself (assuming dedup),
	// and a full-range sketch may be off by the sketch error; pin it.
	e.counts[rangeID(0, n, n)] = int64(nnz)
	return e
}

// NewExactEstimator computes the same table exactly with hash sets, for
// model-validation experiments. Cost: O(nnz · N²) time and up to
// O(nnz · N²) transient memory.
func NewExactEstimator(x *tensor.COO) *Estimator {
	n := x.Order()
	e := &Estimator{order: n, nnz: int64(x.NNZ()), dims: append([]int(nil), x.Dims...), counts: make([]int64, n*n), exact: true}
	for lo := 0; lo < n; lo++ {
		set := make(map[uint64]struct{})
		for hi := lo + 1; hi <= n; hi++ {
			// Recompute the rolling hash per (lo, hi) prefix; reuse the set
			// across hi is not possible since keys differ, so clear it.
			clear(set)
			for t := 0; t < x.NNZ(); t++ {
				h := uint64(0x9e3779b97f4a7c15)
				for m := lo; m < hi; m++ {
					h = mix64(h ^ (uint64(uint32(x.Inds[m][t])) + 0x632be59bd9b4e019))
				}
				set[h] = struct{}{}
			}
			e.counts[rangeID(lo, hi, n)] = int64(len(set))
		}
	}
	return e
}

// Order returns the tensor order the estimator was built for.
func (e *Estimator) Order() int { return e.order }

// Dims returns the mode dimensions of the underlying tensor (in the
// estimator's mode order).
func (e *Estimator) Dims() []int { return e.dims }

// RangeCount is one entry of the estimator's distinct-tuple table: the
// (estimated) number of distinct index tuples of modes [Lo, Hi).
type RangeCount struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Count int64 `json:"count"`
}

// Ranges returns the full distinct-tuple table — every contiguous mode range
// [lo, hi), in (lo, hi) order. These counts are the inputs of the op and
// memory models, so the audit layer records them with each decision.
func (e *Estimator) Ranges() []RangeCount {
	out := make([]RangeCount, 0, e.order*(e.order+1)/2)
	for lo := 0; lo < e.order; lo++ {
		for hi := lo + 1; hi <= e.order; hi++ {
			out = append(out, RangeCount{Lo: lo, Hi: hi, Count: e.counts[rangeID(lo, hi, e.order)]})
		}
	}
	return out
}

// NNZ returns the nonzero count of the underlying tensor.
func (e *Estimator) NNZ() int64 { return e.nnz }

// Exact reports whether the table holds exact counts.
func (e *Estimator) Exact() bool { return e.exact }

// Distinct returns the (estimated) number of distinct index tuples of the
// tensor projected onto modes [lo, hi).
func (e *Estimator) Distinct(lo, hi int) int64 {
	if lo < 0 || hi <= lo || hi > e.order {
		panic("model: Distinct range out of bounds")
	}
	return e.counts[rangeID(lo, hi, e.order)]
}
