// Package tensor provides the sparse tensor containers, transformations,
// file I/O, and synthetic workload generators shared by every algorithm in
// this repository.
//
// The central type is COO, a coordinate-format sparse tensor stored
// structure-of-arrays: one int32 index slice per mode plus one float64 value
// slice. All MTTKRP engines (COO streaming, CSF, memoized semi-sparse trees)
// are built from a COO instance.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Index is the integer type used for mode indices. int32 keeps the large
// index arrays at half the footprint of int64 while still covering every
// tensor in the evaluation suite (dims < 2^31).
type Index = int32

// COO is a sparse tensor of arbitrary order in coordinate format.
// Invariants (checked by Validate): len(Inds) == len(Dims) == Order();
// every Inds[m] has the same length as Vals; 0 <= Inds[m][k] < Dims[m].
type COO struct {
	Dims []int     // size of each mode
	Inds [][]Index // Inds[m][k]: mode-m index of the k-th nonzero
	Vals []float64 // nonzero values
}

// NewCOO allocates an empty tensor with the given dimensions and capacity
// for nnz nonzeros.
func NewCOO(dims []int, nnz int) *COO {
	t := &COO{Dims: append([]int(nil), dims...), Vals: make([]float64, 0, nnz)}
	t.Inds = make([][]Index, len(dims))
	for m := range t.Inds {
		t.Inds[m] = make([]Index, 0, nnz)
	}
	return t
}

// Order returns the number of modes.
func (t *COO) Order() int { return len(t.Dims) }

// NNZ returns the number of stored nonzeros.
func (t *COO) NNZ() int { return len(t.Vals) }

// Append adds one nonzero. idx must have Order() entries.
func (t *COO) Append(idx []Index, v float64) {
	if len(idx) != t.Order() {
		panic("tensor: Append index arity mismatch")
	}
	for m, i := range idx {
		t.Inds[m] = append(t.Inds[m], i)
	}
	t.Vals = append(t.Vals, v)
}

// Validate checks the structural invariants and index bounds.
func (t *COO) Validate() error {
	if len(t.Inds) != len(t.Dims) {
		return fmt.Errorf("tensor: %d index arrays for %d dims", len(t.Inds), len(t.Dims))
	}
	for m, ind := range t.Inds {
		if len(ind) != len(t.Vals) {
			return fmt.Errorf("tensor: mode %d has %d indices, want %d", m, len(ind), len(t.Vals))
		}
		dim := t.Dims[m]
		if dim <= 0 {
			return fmt.Errorf("tensor: mode %d has non-positive size %d", m, dim)
		}
		for k, i := range ind {
			if i < 0 || int(i) >= dim {
				return fmt.Errorf("tensor: nonzero %d index %d out of range [0,%d) in mode %d", k, i, dim, m)
			}
		}
	}
	for k, v := range t.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tensor: nonzero %d has non-finite value %g", k, v)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (t *COO) Clone() *COO {
	c := &COO{
		Dims: append([]int(nil), t.Dims...),
		Vals: append([]float64(nil), t.Vals...),
	}
	c.Inds = make([][]Index, len(t.Inds))
	for m := range t.Inds {
		c.Inds[m] = append([]Index(nil), t.Inds[m]...)
	}
	return c
}

// Norm returns the Frobenius norm of the tensor (assuming no duplicate
// coordinates; call Dedup first if duplicates may exist).
func (t *COO) Norm() float64 {
	s := 0.0
	for _, v := range t.Vals {
		s += v * v
	}
	return math.Sqrt(s)
}

// Density returns nnz divided by the product of the dimensions (as float64;
// the product may overflow int64 for high orders).
func (t *COO) Density() float64 {
	p := 1.0
	for _, d := range t.Dims {
		p *= float64(d)
	}
	if p == 0 {
		return 0
	}
	return float64(t.NNZ()) / p
}

// lessTuple compares nonzeros a and b lexicographically over modeOrder.
func (t *COO) lessTuple(a, b int, modeOrder []int) bool {
	for _, m := range modeOrder {
		ia, ib := t.Inds[m][a], t.Inds[m][b]
		if ia != ib {
			return ia < ib
		}
	}
	return false
}

// equalTuple reports whether nonzeros a and b coincide on every mode.
func (t *COO) equalTuple(a, b int) bool {
	for m := range t.Inds {
		if t.Inds[m][a] != t.Inds[m][b] {
			return false
		}
	}
	return true
}

// Sort orders the nonzeros lexicographically by the given mode order (which
// must be a permutation of 0..N-1 or a prefix of one; remaining modes are
// appended in ascending order as tie-breakers).
func (t *COO) Sort(modeOrder []int) {
	order := completeModeOrder(modeOrder, t.Order())
	perm := make([]int, t.NNZ())
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return t.lessTuple(perm[a], perm[b], order) })
	t.applyPermutation(perm)
}

// applyPermutation reorders all nonzeros so the k-th is the old perm[k]-th.
func (t *COO) applyPermutation(perm []int) {
	for m := range t.Inds {
		src := t.Inds[m]
		dst := make([]Index, len(src))
		for k, p := range perm {
			dst[k] = src[p]
		}
		t.Inds[m] = dst
	}
	vals := make([]float64, len(t.Vals))
	for k, p := range perm {
		vals[k] = t.Vals[p]
	}
	t.Vals = vals
}

// completeModeOrder validates a (possibly partial) mode order and extends it
// to a full permutation of 0..n-1.
func completeModeOrder(modeOrder []int, n int) []int {
	seen := make([]bool, n)
	order := make([]int, 0, n)
	for _, m := range modeOrder {
		if m < 0 || m >= n || seen[m] {
			panic(fmt.Sprintf("tensor: invalid mode order %v for order-%d tensor", modeOrder, n))
		}
		seen[m] = true
		order = append(order, m)
	}
	for m := 0; m < n; m++ {
		if !seen[m] {
			order = append(order, m)
		}
	}
	return order
}

// Dedup sorts the tensor and sums duplicate coordinates in place. Returns
// the number of duplicates merged.
func (t *COO) Dedup() int {
	if t.NNZ() == 0 {
		return 0
	}
	t.Sort(nil)
	w := 0
	for k := 1; k < t.NNZ(); k++ {
		if t.equalTuple(w, k) {
			t.Vals[w] += t.Vals[k]
			continue
		}
		w++
		if w != k {
			for m := range t.Inds {
				t.Inds[m][w] = t.Inds[m][k]
			}
			t.Vals[w] = t.Vals[k]
		}
	}
	merged := t.NNZ() - (w + 1)
	for m := range t.Inds {
		t.Inds[m] = t.Inds[m][:w+1]
	}
	t.Vals = t.Vals[:w+1]
	return merged
}

// PermuteModes returns a read-only view of t with modes reordered so that
// new mode m is old mode perm[m]. The view shares t's index and value
// arrays: nothing is copied, and neither tensor may be modified while the
// other is in use.
func (t *COO) PermuteModes(perm []int) *COO {
	if !IsPermutation(perm, t.Order()) {
		panic(fmt.Sprintf("tensor: PermuteModes: %v is not a permutation of %d modes", perm, t.Order()))
	}
	c := &COO{Dims: make([]int, t.Order()), Inds: make([][]Index, t.Order()), Vals: t.Vals}
	for m, p := range perm {
		c.Dims[m] = t.Dims[p]
		c.Inds[m] = t.Inds[p]
	}
	return c
}

// IsPermutation reports whether order is a permutation of 0..n-1.
func IsPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, m := range order {
		if m < 0 || m >= n || seen[m] {
			return false
		}
		seen[m] = true
	}
	return true
}

// CompactModes removes empty slices: every mode index space is relabelled to
// the dense range of indices that actually occur. Returns, per mode, the
// mapping from new index to original index.
func (t *COO) CompactModes() [][]Index {
	maps := make([][]Index, t.Order())
	for m := range t.Inds {
		used := make([]bool, t.Dims[m])
		for _, i := range t.Inds[m] {
			used[i] = true
		}
		relabel := make([]Index, t.Dims[m])
		var back []Index
		next := Index(0)
		for i, u := range used {
			if u {
				relabel[i] = next
				back = append(back, Index(i))
				next++
			}
		}
		if int(next) == t.Dims[m] {
			maps[m] = back
			continue // no empty slices in this mode
		}
		for k, i := range t.Inds[m] {
			t.Inds[m][k] = relabel[i]
		}
		t.Dims[m] = int(next)
		maps[m] = back
	}
	return maps
}

// At returns the value at the given coordinate by linear search, for tests
// and tiny tensors only.
func (t *COO) At(idx []Index) float64 {
	s := 0.0
	for k := 0; k < t.NNZ(); k++ {
		match := true
		for m := range idx {
			if t.Inds[m][k] != idx[m] {
				match = false
				break
			}
		}
		if match {
			s += t.Vals[k]
		}
	}
	return s
}

// ErrTooLarge is returned by ToDense when the dense expansion would exceed
// the element cap.
var ErrTooLarge = errors.New("tensor: dense expansion too large")

// ToDense expands the tensor into a dense row-major array (last mode
// fastest), refusing if the total element count exceeds maxElems. Intended
// for reference computations in tests.
func (t *COO) ToDense(maxElems int) ([]float64, error) {
	total := 1
	for _, d := range t.Dims {
		if d <= 0 || total > maxElems/d {
			return nil, ErrTooLarge
		}
		total *= d
	}
	out := make([]float64, total)
	strides := make([]int, t.Order())
	s := 1
	for m := t.Order() - 1; m >= 0; m-- {
		strides[m] = s
		s *= t.Dims[m]
	}
	for k := 0; k < t.NNZ(); k++ {
		off := 0
		for m := range strides {
			off += int(t.Inds[m][k]) * strides[m]
		}
		out[off] += t.Vals[k]
	}
	return out, nil
}

// String summarizes the tensor shape.
func (t *COO) String() string {
	return fmt.Sprintf("COO(order=%d dims=%v nnz=%d)", t.Order(), t.Dims, t.NNZ())
}
