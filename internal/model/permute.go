package model

import (
	"slices"
	"sort"

	"adatm/internal/tensor"
)

// Mode order support: strategy trees group contiguous ranges of positions,
// so grouping non-adjacent modes is a tree over another mode order. The
// functions here name candidate orders and score every (order, tree) pair
// with the same routine Select runs over the natural order.

// HeuristicPermutations returns the candidate mode orders the selector
// scores: natural, dimensions ascending, dimensions descending, and
// per-mode distinct-count ascending (most compressible modes first, so they
// sink deep into the tree where they are contracted last).
func HeuristicPermutations(x *tensor.COO) map[string][]int {
	n := x.Order()
	natural := make([]int, n)
	for i := range natural {
		natural[i] = i
	}
	byDims := func(less func(a, b int) bool) []int {
		p := append([]int(nil), natural...)
		sort.SliceStable(p, func(a, b int) bool { return less(p[a], p[b]) })
		return p
	}
	est := NewEstimator(x, 512)
	distinct := make([]int64, n)
	for m := 0; m < n; m++ {
		distinct[m] = est.Distinct(m, m+1)
	}
	return map[string][]int{
		"natural":      natural,
		"dims-asc":     byDims(func(a, b int) bool { return x.Dims[a] < x.Dims[b] }),
		"dims-desc":    byDims(func(a, b int) bool { return x.Dims[a] > x.Dims[b] }),
		"distinct-asc": byDims(func(a, b int) bool { return distinct[a] < distinct[b] }),
	}
}

// SelectPermuted is Select over several mode orders: perms maps a name to
// an order (the original mode at each position), and nil uses
// HeuristicPermutations. Each order gets its own estimator over the tensor
// viewed in that order. Candidates are named "<order>/<tree>", orders are
// scored in name order, and the chosen candidate's Strategy carries its
// order (nil when it is the natural one).
func SelectPermuted(x *tensor.COO, opt Options, perms map[string][]int) *Plan {
	if perms == nil {
		perms = HeuristicPermutations(x)
	}
	names := make([]string, 0, len(perms))
	for name := range perms {
		names = append(names, name)
	}
	sort.Strings(names)
	orders := make([]sweepOrder, len(names))
	for i, name := range names {
		perm := perms[name]
		orders[i] = sweepOrder{prefix: name + "/", est: NewEstimator(x.PermuteModes(perm), 0)}
		if !slices.IsSorted(perm) { // the one sorted permutation is the natural order
			orders[i].modes = slices.Clone(perm)
		}
	}
	return choose(orders, opt)
}
