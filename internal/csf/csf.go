// Package csf implements the compressed-sparse-fiber tensor format and the
// fiber-factored MTTKRP kernels built on it. This is the data structure and
// algorithm family of SPLATT, the state-of-the-art baseline the paper
// compares against: nonzeros are organized into a forest per mode, so factor
// rows shared along a fiber are multiplied once per fiber instead of once
// per nonzero.
//
// The AllMode engine keeps one CSF tree per mode (SPLATT's ALLMODE
// configuration) and always runs the root-mode kernel, which parallelizes
// race-free over root fibers. Both engines run on the shared kernel layer:
// per-worker scratch comes from a kernel.Arena sized once at construction,
// and root fibers are scheduled in equal-nnz chunks (leaf-count-weighted
// prefix sums) rather than fixed-size blocks, so one heavy fiber cannot
// serialize a whole block of light ones.
package csf

import (
	"fmt"
	"sort"
	"time"

	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/kernel"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// rootChunksPerWorker is the load-balancing oversubscription factor: root
// fibers are split into workers × rootChunksPerWorker equal-nnz chunks.
const rootChunksPerWorker = 8

// Tensor is one CSF tree: levels ordered by ModeOrder, with Fids[l] holding
// the mode index of every node at level l, Ptr[l] delimiting the children of
// each level-l node within level l+1 (for l < N−1), and Vals holding the
// leaf values (len(Vals) == len(Fids[N−1]) == nnz).
type Tensor struct {
	ModeOrder []int
	Dims      []int
	Fids      [][]tensor.Index
	Ptr       [][]int64
	Vals      []float64
	// RootLeafPtr is the prefix of leaf (= nonzero) counts per root fiber:
	// root fiber i owns leaves [RootLeafPtr[i], RootLeafPtr[i+1]). It is the
	// weight array the load-balanced schedulers chunk by.
	RootLeafPtr []int64
}

// Build constructs a CSF tree from a deduplicated COO tensor using the given
// level order, which must be a permutation of the modes.
func Build(x *tensor.COO, modeOrder []int) (*Tensor, error) {
	n := x.Order()
	if !tensor.IsPermutation(modeOrder, n) {
		return nil, fmt.Errorf("csf: mode order %v is not a permutation of 0..%d", modeOrder, n-1)
	}
	nnz := x.NNZ()
	perm := make([]int, nnz)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ka, kb := perm[a], perm[b]
		for _, m := range modeOrder {
			ia, ib := x.Inds[m][ka], x.Inds[m][kb]
			if ia != ib {
				return ia < ib
			}
		}
		return false
	})

	t := &Tensor{
		ModeOrder: append([]int(nil), modeOrder...),
		Dims:      append([]int(nil), x.Dims...),
		Fids:      make([][]tensor.Index, n),
		Ptr:       make([][]int64, n-1),
		Vals:      make([]float64, 0, nnz),
	}
	for k, p := range perm {
		// diverge = the shallowest level whose index differs from the
		// previous nonzero; every level at or below it starts a new node.
		diverge := 0
		if k > 0 {
			prev := perm[k-1]
			for diverge < n && x.Inds[modeOrder[diverge]][p] == x.Inds[modeOrder[diverge]][prev] {
				diverge++
			}
		}
		if k == 0 {
			diverge = 0
		}
		if diverge == 0 {
			t.RootLeafPtr = append(t.RootLeafPtr, int64(len(t.Vals)))
		}
		for l := diverge; l < n; l++ {
			if l < n-1 {
				t.Ptr[l] = append(t.Ptr[l], int64(len(t.Fids[l+1])))
			}
			t.Fids[l] = append(t.Fids[l], x.Inds[modeOrder[l]][p])
		}
		t.Vals = append(t.Vals, x.Vals[p])
	}
	// Close each pointer array with a sentinel.
	for l := 0; l < n-1; l++ {
		t.Ptr[l] = append(t.Ptr[l], int64(len(t.Fids[l+1])))
	}
	t.RootLeafPtr = append(t.RootLeafPtr, int64(len(t.Vals)))
	return t, nil
}

// mustBuild wraps Build for the engine constructors, which synthesize their
// own mode orders: a build error there is an internal invariant violation,
// not a caller mistake.
func mustBuild(x *tensor.COO, modeOrder []int) *Tensor {
	t, err := Build(x, modeOrder)
	if err != nil {
		panic(err)
	}
	return t
}

// NNodes returns the number of nodes at each level.
func (t *Tensor) NNodes() []int {
	out := make([]int, len(t.Fids))
	for l, f := range t.Fids {
		out[l] = len(f)
	}
	return out
}

// IndexBytes returns the auxiliary storage of the tree (index and pointer
// arrays; values excluded).
func (t *Tensor) IndexBytes() int64 {
	var b int64
	for _, f := range t.Fids {
		b += int64(len(f)) * 4
	}
	for _, p := range t.Ptr {
		b += int64(len(p)) * 8
	}
	return b
}

// children returns the child range of node at level l.
func (t *Tensor) children(l int, node int64) (int64, int64) {
	return t.Ptr[l][node], t.Ptr[l][node+1]
}

// rootWalker is the reusable per-worker state of the root-mode kernel: one
// scratch R-vector per level (arena-backed) plus the call-scoped inputs. A
// method-based walker instead of closures keeps the steady-state kernel
// allocation-free.
type rootWalker struct {
	t       *Tensor
	factors []*dense.Matrix
	scratch [][]float64 // one R-vector per level
	local   int64
	r       int
}

// walk computes the subtree TTV of the node at (l, id), already multiplied
// by the node's own factor row (levels >= 1).
func (w *rootWalker) walk(l int, id int64) []float64 {
	t := w.t
	n := len(t.ModeOrder)
	buf := w.scratch[l]
	if l == n-1 {
		kernel.Scale(buf, w.factors[t.ModeOrder[l]].Row(int(t.Fids[l][id])), t.Vals[id])
		w.local += int64(w.r)
		return buf
	}
	for j := range buf {
		buf[j] = 0
	}
	c0, c1 := t.children(l, id)
	for c := c0; c < c1; c++ {
		kernel.AddInto(buf, w.walk(l+1, c))
		w.local += int64(w.r)
	}
	if l > 0 {
		kernel.MulInto(buf, w.factors[t.ModeOrder[l]].Row(int(t.Fids[l][id])))
		w.local += int64(w.r)
	}
	return buf
}

// rootState bundles the preallocated scheduling and scratch state of the
// root kernel for one tree: equal-nnz chunk bounds over root fibers and one
// walker per worker.
type rootState struct {
	bounds  []int
	walkers []rootWalker
	arena   *kernel.Arena
	// Call-scoped kernel inputs plus a method value bound once at
	// construction: passing the same func value to the scheduler on every
	// call (instead of a fresh closure literal) is what keeps the
	// steady-state kernel at zero allocations.
	t    *Tensor
	out  *dense.Matrix
	body func(worker, lo, hi int)
}

// newRootState sizes the root-kernel state for t with the given resolved
// worker count (must be >= 1).
func newRootState(t *Tensor, workers int) *rootState {
	s := &rootState{
		bounds:  par.WeightedBounds(t.RootLeafPtr, workers*rootChunksPerWorker),
		walkers: make([]rootWalker, workers),
		arena:   kernel.NewArena(workers, len(t.ModeOrder)),
	}
	s.body = s.runChunk
	return s
}

// runChunk processes one scheduled chunk of root fibers.
func (s *rootState) runChunk(worker, lo, hi int) {
	t, out := s.t, s.out
	wk := &s.walkers[worker]
	for root := lo; root < hi; root++ {
		copy(out.Row(int(t.Fids[0][root])), wk.walk(0, int64(root)))
	}
}

// prepare re-points the walkers at the current rank's arena buffers. Called
// from the single-threaded kernel entry.
func (s *rootState) prepare(t *Tensor, factors []*dense.Matrix, r int) {
	n := len(t.ModeOrder)
	s.arena.EnsureRank(r)
	for w := range s.walkers {
		wk := &s.walkers[w]
		wk.t = t
		wk.factors = factors
		wk.r = r
		wk.local = 0
		if wk.scratch == nil {
			wk.scratch = make([][]float64, n)
		}
		for l := 0; l < n; l++ {
			wk.scratch[l] = s.arena.Buf(w, l)
		}
	}
}

// mttkrpRoot is the engine-facing root kernel: load-balanced over equal-nnz
// root-fiber chunks, allocation-free in steady state.
func (t *Tensor) mttkrpRoot(factors []*dense.Matrix, out *dense.Matrix, workers int, s *rootState) int64 {
	out.Zero()
	s.prepare(t, factors, out.Cols)
	s.t, s.out = t, out
	par.ForChunks(s.bounds, workers, s.body)
	s.t, s.out = nil, nil
	var ops int64
	for w := range s.walkers {
		ops += s.walkers[w].local
	}
	return ops
}

// MTTKRPRoot computes the MTTKRP for the tree's root mode into out
// (Dims[ModeOrder[0]] × R), overwriting it. factors holds one matrix per
// original mode. Returns the number of Hadamard op units performed.
//
// This standalone form builds transient scheduling state per call; the
// engines hold a persistent rootState instead and stay allocation-free.
func (t *Tensor) MTTKRPRoot(factors []*dense.Matrix, out *dense.Matrix, workers int) int64 {
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	return t.mttkrpRoot(factors, out, workers, newRootState(t, w))
}

// AllMode is the SPLATT-ALLMODE engine: one CSF tree per mode, root-mode
// kernel for every MTTKRP.
type AllMode struct {
	trees   []*Tensor
	states  []*rootState
	workers int
	ctr     engine.Counters
	idxB    int64
}

// NewAllMode builds the N per-mode trees. Within each tree the non-root
// levels are ordered by ascending mode size, which maximizes fiber reuse
// near the root (the standard SPLATT heuristic).
func NewAllMode(x *tensor.COO, workers int) *AllMode {
	n := x.Order()
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	e := &AllMode{trees: make([]*Tensor, n), states: make([]*rootState, n), workers: workers}
	for mode := 0; mode < n; mode++ {
		rest := make([]int, 0, n-1)
		for m := 0; m < n; m++ {
			if m != mode {
				rest = append(rest, m)
			}
		}
		sort.Slice(rest, func(a, b int) bool {
			if x.Dims[rest[a]] != x.Dims[rest[b]] {
				return x.Dims[rest[a]] < x.Dims[rest[b]]
			}
			return rest[a] < rest[b]
		})
		order := append([]int{mode}, rest...)
		e.trees[mode] = mustBuild(x, order)
		e.states[mode] = newRootState(e.trees[mode], w)
		e.idxB += e.trees[mode].IndexBytes()
	}
	return e
}

// Name implements engine.Engine.
func (e *AllMode) Name() string { return "csf" }

// FactorUpdated implements engine.Engine; CSF caches no factor-dependent
// state.
func (e *AllMode) FactorUpdated(int) {}

// Stats implements engine.Engine. ValueBytes counts the N copies of the
// nonzero values held by the per-mode trees.
func (e *AllMode) Stats() engine.Stats {
	var vb int64
	for _, t := range e.trees {
		vb += int64(len(t.Vals)) * 8
	}
	s := engine.Stats{IndexBytes: e.idxB, ValueBytes: vb, PeakValueBytes: vb}
	e.ctr.Fill(&s)
	return s
}

// ResetStats implements engine.Engine.
func (e *AllMode) ResetStats() { e.ctr.Reset() }

// MTTKRP implements engine.Engine.
func (e *AllMode) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if err := engine.CheckInputs(e.trees[0].Dims, mode, factors, out); err != nil {
		return err
	}
	start := time.Now()
	e.ctr.AddOps(e.trees[mode].mttkrpRoot(factors, out, e.workers, e.states[mode]))
	e.ctr.Observe(start)
	return nil
}

var _ engine.Engine = (*AllMode)(nil)
