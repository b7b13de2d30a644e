// Package memo implements the paper's central contribution: memoized MTTKRP
// for sparse CP-ALS via trees of semi-sparse intermediate tensors.
//
// A Strategy is a tree over the mode range [0, N): the root covers every
// mode, each internal node's range is partitioned among its children, and
// the N leaves are the single modes. Each tree node owns a semi-sparse
// tensor — the input tensor contracted (tensor-times-matrix-rows via
// Hadamard products) over all modes *outside* the node's range — and the
// tree shape decides how much partial work is shared between the ALS
// sub-iterations:
//
//   - Flat: every leaf hangs off the root. No sharing; per-mode
//     recomputation with index compression (the conventional scheme).
//   - TwoGroup: a 3-level tree splitting the modes into two halves
//     (the Phan et al. scheme generalized to sparse tensors) — each half's
//     contraction is computed once and reused by all its modes.
//   - Balanced: a balanced binary tree, the maximal-reuse limit with
//     O(N log N) tensor contractions per ALS iteration.
//   - arbitrary binary trees chosen by the cost model (package model).
//
// Children cover contiguous ranges of positions in the sweep order because
// CP-ALS sweeps the modes in that order: contiguity is exactly the condition
// under which every node is computed once and reused until its whole range
// has been swept. The root names the original mode at each position
// (Strategy.Modes), so the order is part of the tree: grouping modes that
// are not adjacent in the tensor is a tree over another order, not another
// kind of engine.
package memo

import (
	"fmt"
	"strings"

	"adatm/internal/tensor"
)

// Strategy is a node of a memoization tree over the contiguous range
// [Lo, Hi) of positions in the sweep order. Leaves have Hi == Lo+1 and no
// children; internal nodes have at least two children whose ranges
// partition [Lo, Hi) in order.
type Strategy struct {
	Lo, Hi   int
	Children []*Strategy
	// Modes is set on the root only: Modes[p] is the original mode at
	// position p. nil is the natural order, position p is mode p.
	Modes []int
}

// mode returns the original mode at position p of s's order.
func (s *Strategy) mode(p int) int {
	if s.Modes == nil {
		return p
	}
	return s.Modes[p]
}

// SweepOrder returns the original modes in the order CP-ALS must sweep
// them for every node to be computed once per iteration: Modes, or the
// natural order when Modes is nil. Call it on the root.
func (s *Strategy) SweepOrder() []int {
	order := make([]int, s.Hi)
	for p := range order {
		order[p] = s.mode(p)
	}
	return order
}

// IsLeaf reports whether s covers a single mode.
func (s *Strategy) IsLeaf() bool { return s.Hi-s.Lo == 1 }

// Span returns the number of modes covered.
func (s *Strategy) Span() int { return s.Hi - s.Lo }

// Validate checks that s is a well-formed strategy for an order-n tensor:
// a tree over [0, n) whose root order, when set, is a permutation of the n
// modes.
func (s *Strategy) Validate(n int) error {
	if s.Lo != 0 || s.Hi != n {
		return fmt.Errorf("memo: root covers [%d,%d), want [0,%d)", s.Lo, s.Hi, n)
	}
	if s.Modes != nil && !tensor.IsPermutation(s.Modes, n) {
		return fmt.Errorf("memo: mode order %v is not a permutation of %d modes", s.Modes, n)
	}
	return s.validate()
}

func (s *Strategy) validate() error {
	for _, c := range s.Children {
		if c.Modes != nil {
			return fmt.Errorf("memo: mode order on non-root node [%d,%d)", c.Lo, c.Hi)
		}
	}
	if s.Lo >= s.Hi {
		return fmt.Errorf("memo: empty node range [%d,%d)", s.Lo, s.Hi)
	}
	if s.IsLeaf() {
		if len(s.Children) != 0 {
			return fmt.Errorf("memo: leaf [%d,%d) has children", s.Lo, s.Hi)
		}
		return nil
	}
	if len(s.Children) < 2 {
		return fmt.Errorf("memo: internal node [%d,%d) has %d children, want >= 2", s.Lo, s.Hi, len(s.Children))
	}
	at := s.Lo
	for _, c := range s.Children {
		if c.Lo != at {
			return fmt.Errorf("memo: child range [%d,%d) does not continue from %d", c.Lo, c.Hi, at)
		}
		if c.Hi > s.Hi {
			return fmt.Errorf("memo: child range [%d,%d) escapes parent [%d,%d)", c.Lo, c.Hi, s.Lo, s.Hi)
		}
		if err := c.validate(); err != nil {
			return err
		}
		at = c.Hi
	}
	if at != s.Hi {
		return fmt.Errorf("memo: children of [%d,%d) stop at %d", s.Lo, s.Hi, at)
	}
	return nil
}

// Flat returns the no-memoization strategy: all n leaves directly under the
// root.
func Flat(n int) *Strategy {
	root := &Strategy{Lo: 0, Hi: n}
	for m := 0; m < n; m++ {
		root.Children = append(root.Children, &Strategy{Lo: m, Hi: m + 1})
	}
	return root
}

// TwoGroup returns the 3-level strategy splitting the modes at the given
// point: the two groups [0, split) and [split, n) are each contracted once
// and shared by their modes. split must be in [1, n-1].
func TwoGroup(n, split int) *Strategy {
	if split < 1 || split >= n {
		panic(fmt.Sprintf("memo: TwoGroup split %d out of range for order %d", split, n))
	}
	group := func(lo, hi int) *Strategy {
		g := &Strategy{Lo: lo, Hi: hi}
		if hi-lo == 1 {
			return g
		}
		for m := lo; m < hi; m++ {
			g.Children = append(g.Children, &Strategy{Lo: m, Hi: m + 1})
		}
		return g
	}
	return &Strategy{Lo: 0, Hi: n, Children: []*Strategy{group(0, split), group(split, n)}}
}

// Balanced returns the balanced binary strategy (the dimension-tree limit of
// the design space).
func Balanced(n int) *Strategy {
	var build func(lo, hi int) *Strategy
	build = func(lo, hi int) *Strategy {
		s := &Strategy{Lo: lo, Hi: hi}
		if hi-lo == 1 {
			return s
		}
		mid := lo + (hi-lo+1)/2
		s.Children = []*Strategy{build(lo, mid), build(mid, hi)}
		return s
	}
	return build(0, n)
}

// BinaryFromSplits builds a binary strategy from a split table: split(lo,
// hi) returns the split point for the internal node covering [lo, hi). This
// is how the cost model materializes its DP solution.
func BinaryFromSplits(n int, split func(lo, hi int) int) *Strategy {
	var build func(lo, hi int) *Strategy
	build = func(lo, hi int) *Strategy {
		s := &Strategy{Lo: lo, Hi: hi}
		if hi-lo == 1 {
			return s
		}
		mid := split(lo, hi)
		if mid <= lo || mid >= hi {
			panic(fmt.Sprintf("memo: invalid split %d for [%d,%d)", mid, lo, hi))
		}
		s.Children = []*Strategy{build(lo, mid), build(mid, hi)}
		return s
	}
	return build(0, n)
}

// String renders the tree in a compact nested notation over the original
// modes, e.g. "([0-1] [2-3])" for a balanced order-4 tree. A group of
// leaves is a bracketed range when its modes run up by one, and a
// comma-separated list otherwise: "([3,1] [0,2])" is the same shape over
// the order 3 1 0 2.
func (s *Strategy) String() string {
	var b strings.Builder
	s.render(&b, s)
	return b.String()
}

func (s *Strategy) render(b *strings.Builder, root *Strategy) {
	if s.IsLeaf() {
		fmt.Fprintf(b, "%d", root.mode(s.Lo))
		return
	}
	b.WriteByte('(')
	for i, c := range s.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		if c.flatGroup() {
			c.renderGroup(b, root)
		} else {
			c.render(b, root)
		}
	}
	b.WriteByte(')')
}

// renderGroup renders a node whose children are all leaves.
func (s *Strategy) renderGroup(b *strings.Builder, root *Strategy) {
	first := root.mode(s.Lo)
	run := true
	for p := s.Lo; p < s.Hi; p++ {
		run = run && root.mode(p) == first+p-s.Lo
	}
	if run {
		fmt.Fprintf(b, "[%d-%d]", first, first+s.Span()-1)
		return
	}
	b.WriteByte('[')
	for p := s.Lo; p < s.Hi; p++ {
		if p > s.Lo {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%d", root.mode(p))
	}
	b.WriteByte(']')
}

// flatGroup reports whether every child of s is a leaf.
func (s *Strategy) flatGroup() bool {
	for _, c := range s.Children {
		if !c.IsLeaf() {
			return false
		}
	}
	return len(s.Children) > 0
}

// Equal reports whether two strategies have the same shape over the same
// mode order (a nil order equals the natural one).
func (s *Strategy) Equal(o *Strategy) bool {
	if s.Lo != o.Lo || s.Hi != o.Hi || len(s.Children) != len(o.Children) {
		return false
	}
	for p := s.Lo; p < s.Hi; p++ {
		if s.mode(p) != o.mode(p) {
			return false
		}
	}
	for i := range s.Children {
		if !s.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}
