package memo

import (
	"adatm/internal/dense"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// node is the runtime form of a strategy-tree node: the symbolic structure
// (distinct projected index tuples plus the reduction mapping from the
// parent's elements) computed once, and the numeric value matrix
// materialized and invalidated as CP-ALS sweeps the modes.
type node struct {
	lo, hi   int // mode range [lo, hi)
	parent   *node
	children []*node

	// delta is the set of modes contracted away when computing this node
	// from its parent: parent range minus [lo, hi).
	delta []int

	// Symbolic structure. inds[m-lo] is the index array of mode m over the
	// node's nelem distinct projected tuples; for the root these alias the
	// input tensor's arrays. redPtr (nil for the root) groups the parent's
	// elements by the tuple of this node they project onto: reduction
	// entries redPtr[i]:redPtr[i+1] reduce into element i. Below the first
	// level an entry is a parent element id, redElems[e].
	nelem    int
	inds     [][]tensor.Index
	redPtr   []int64
	redElems []int32

	// Streamed reduction of a non-leaf child of the root (nil otherwise, or
	// when the engine does not stream): the entries' nonzero values and delta-mode
	// indices copied into reduction order, sVals[e] = x.Vals[pe] and
	// sIdx[k][e] = deltaIdx[k][pe] for the entry's root element pe. The
	// contraction then reads every array sequentially instead of gathering
	// through redElems.
	sVals []float64
	sIdx  [][]tensor.Index

	// vals is the nelem × R semi-sparse value matrix; nil when invalidated.
	// Leaf nodes never materialize vals: their contraction is fused with
	// the MTTKRP output scatter.
	vals *dense.Matrix
	// buf optionally retains the value storage across invalidations (the
	// engine's RetainBuffers mode), avoiding one allocation per node per
	// ALS iteration.
	buf []float64
	// mat is the reusable matrix header wrapped around buf in retain mode,
	// so re-materializing a node allocates nothing.
	mat dense.Matrix

	// Kernel-layer state resolved once at build time so the numeric phase
	// performs no per-call setup allocation: deltaIdx[k] is the parent's
	// index array for mode delta[k], facData is the per-call factor scratch
	// (the delta modes' row-major factor data, filled at the top of each
	// compute), and chunks holds the equal-weight chunk boundaries over
	// this node's elements (weighted by reduction-group size via the redPtr
	// prefix sums — the load-balanced schedule for skewed reductions).
	deltaIdx [][]tensor.Index
	facData  [][]float64
	chunks   []int

	// id is the node's index in the engine's pre-order list, assigned at
	// instrumentation time to address the per-node rebuild span names.
	id int
}

// buildTree materializes the symbolic structure for every strategy node,
// processing each tree level's nodes concurrently (a node depends only on
// its parent, so breadth-first order exposes the natural coarse parallelism
// of the preprocessing). Returns the root, all nodes in breadth-first
// order, and the leaf for each mode.
// With stream set, the children of the root that are not leaves store
// their reduction as streamed tuples (sVals/sIdx) in place of redElems.
// Leaves keep redElems: a streamed leaf costs the most bytes (every other
// mode's index per nonzero) and did not measure faster.
func buildTree(x *tensor.COO, strat *Strategy, workers int, stream bool) (root *node, all []*node, leaves []*node) {
	n := x.Order()
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	leaves = make([]*node, n)
	root = &node{lo: 0, hi: n, nelem: x.NNZ(), inds: x.Inds}
	all = append(all, root)

	type task struct {
		s  *Strategy
		pn *node
	}
	level := []task{{strat, root}}
	for len(level) > 0 {
		// Wire up the level's skeleton nodes sequentially, then fill their
		// symbolic structure in parallel.
		var nodes []*node
		var next []task
		for _, tk := range level {
			for _, cs := range tk.s.Children {
				cn := &node{lo: cs.Lo, hi: cs.Hi, parent: tk.pn}
				for m := tk.pn.lo; m < tk.pn.hi; m++ {
					if m < cs.Lo || m >= cs.Hi {
						cn.delta = append(cn.delta, m)
					}
				}
				tk.pn.children = append(tk.pn.children, cn)
				all = append(all, cn)
				nodes = append(nodes, cn)
				if cs.IsLeaf() {
					leaves[cs.Lo] = cn
				} else {
					next = append(next, task{cs, cn})
				}
			}
		}
		par.For(len(nodes), workers, func(i int) {
			c := nodes[i]
			buildSymbolic(c, x.Dims, stream && c.parent == root && c.hi-c.lo > 1, x.Vals)
			finalizeNode(c, w)
		})
		level = next
	}
	return root, all, leaves
}

// finalizeNode resolves the kernel-layer state of a freshly built node: the
// factor scratch and the nnz-weighted chunk boundaries used by the
// load-balanced scheduler (workers × 8 chunks of roughly equal reduction
// weight).
func finalizeNode(c *node, workers int) {
	c.facData = make([][]float64, len(c.delta))
	c.chunks = par.WeightedBounds(c.redPtr, workers*8)
}

// buildSymbolic computes the symbolic projection of c's parent onto
// [c.lo, c.hi): sort the parent's elements by their projected index tuple
// (LSD radix), collapse duplicates into distinct child elements, and record
// the grouping as the reduction mapping — as redElems, or, with stream set
// (c is a child of the root), as streamed tuples gathered from the nonzero
// values rootVals.
func buildSymbolic(c *node, dims []int, stream bool, rootVals []float64) {
	p := c.parent
	lo, hi := c.lo, c.hi
	// The delta-mode index arrays are stable for the life of the engine:
	// parent inds are built once and never reallocated.
	c.deltaIdx = make([][]tensor.Index, len(c.delta))
	for k, d := range c.delta {
		c.deltaIdx[k] = p.inds[d-p.lo]
	}
	// Key arrays: the parent's index arrays for the child's modes.
	keys := make([][]tensor.Index, hi-lo)
	for m := lo; m < hi; m++ {
		keys[m-lo] = p.inds[m-p.lo]
	}
	perm := make([]int32, p.nelem)
	for i := range perm {
		perm[i] = int32(i)
	}
	scratch := sortByKeys(perm, keys, dims[lo:hi])
	sameKey := func(a, b int32) bool {
		for _, key := range keys {
			if key[a] != key[b] {
				return false
			}
		}
		return true
	}
	// One pass over the sorted permutation finds where each distinct tuple
	// starts. The starts go into the radix scratch (free until streaming
	// reuses it), so every array below is allocated once at its exact size.
	starts := scratch[:0]
	for i := range perm {
		if i == 0 || !sameKey(perm[i-1], perm[i]) {
			starts = append(starts, int32(i))
		}
	}
	c.nelem = len(starts)
	c.inds = make([][]tensor.Index, hi-lo)
	for k := range c.inds {
		c.inds[k] = make([]tensor.Index, c.nelem)
	}
	c.redPtr = make([]int64, c.nelem+1)
	for el, i := range starts {
		c.redPtr[el] = int64(i)
		for k, key := range keys {
			c.inds[k][el] = key[perm[i]]
		}
	}
	c.redPtr[c.nelem] = int64(len(perm))
	if !stream {
		c.redElems = perm
		return
	}
	// Stream the reduction. The two buffers the sort leaves behind become
	// index arrays: sIdx[0] is written over perm itself (each entry after
	// its own read) and the radix scratch becomes sIdx[1].
	c.sVals = make([]float64, len(perm))
	c.sIdx = make([][]tensor.Index, len(c.delta))
	for k := range c.sIdx {
		switch k {
		case 0:
			c.sIdx[k] = perm
		case 1:
			c.sIdx[k] = scratch
		default:
			c.sIdx[k] = make([]tensor.Index, len(perm))
		}
	}
	for e, pe := range perm {
		c.sVals[e] = rootVals[pe]
		for k, idx := range c.sIdx {
			idx[e] = c.deltaIdx[k][pe]
		}
	}
}

// indexBytes returns the symbolic storage of the node (index arrays plus
// reduction mapping); the root costs nothing because it aliases the input.
func (t *node) indexBytes() int64 {
	if t.parent == nil {
		return 0
	}
	var b int64
	for _, ind := range t.inds {
		b += int64(len(ind)) * 4
	}
	b += int64(len(t.redPtr))*8 + int64(len(t.redElems))*4 + int64(len(t.sVals))*8
	for _, ind := range t.sIdx {
		b += int64(len(ind)) * 4
	}
	return b
}

// isLeaf reports whether the node covers a single mode.
func (t *node) isLeaf() bool { return t.hi-t.lo == 1 }

// dependsOn reports whether the node's semi-sparse values depend on the
// factor matrix of the given mode (i.e. the mode was contracted away
// somewhere on the path from the root).
func (t *node) dependsOn(mode int) bool {
	return t.parent != nil && (mode < t.lo || mode >= t.hi)
}
