package model

import (
	"adatm/internal/memo"
)

// Prediction is the model's forecast for one strategy at a given rank.
type Prediction struct {
	// Ops is the predicted Hadamard op units (scalar multiply–adds on
	// length-R rows) of one full CP-ALS iteration: every non-root node is
	// materialized exactly once per iteration at a cost of
	// parentElems · (|δ|+1) · R.
	Ops int64
	// IndexBytes is the predicted symbolic storage: per non-root node, its
	// index arrays (4 bytes × span × elems), the reduction element array
	// (4 bytes × parentElems) and the reduction pointer array (8 bytes ×
	// (elems+1)).
	IndexBytes int64
	// PeakValueBytes is the predicted maximum simultaneously live
	// semi-sparse value storage: the union of the value matrices on the
	// paths to two consecutive leaves (the live set while the ALS sweep
	// advances from one mode to the next), maximized over the sweep. Leaf
	// nodes are excluded — the engine fuses their contraction with the
	// output scatter and never materializes them.
	PeakValueBytes int64
	// RetainedValueBytes is the value storage of an engine that keeps every
	// non-leaf node allocated across sweeps: the sum of all their value
	// matrices. It is at least PeakValueBytes.
	RetainedValueBytes int64
	// StreamBytes is the extra symbolic storage of streaming the non-leaf
	// children of the root: each stores its reduction as the nonzeros' values
	// (8 bytes) and delta indices (4 bytes × |δ|) in reduction order, in
	// place of the reduction element array (4 bytes), so it costs
	// parentElems · (8 + 4·|δ| − 4) bytes on top of IndexBytes.
	StreamBytes int64
}

// Predict evaluates the cost model for a strategy at the given rank, using
// distinct-tuple counts from est.
func Predict(est *Estimator, s *memo.Strategy, rank int) Prediction {
	n := est.Order()
	var p Prediction
	elems := func(node *memo.Strategy) int64 { return est.Distinct(node.Lo, node.Hi) }

	// Walk the tree accumulating ops and index bytes, and remember each
	// node's predicted element count for the peak computation.
	type liveNode struct {
		lo, hi int
		bytes  int64
	}
	var lives []liveNode
	var walk func(node *memo.Strategy, parentElems int64)
	walk = func(node *memo.Strategy, parentElems int64) {
		for _, c := range node.Children {
			ce := elems(c)
			delta := int64(node.Span() - c.Span())
			p.Ops += parentElems * (delta + 1) * int64(rank)
			p.IndexBytes += ce*int64(c.Span())*4 + parentElems*4 + (ce+1)*8
			if node == s && !c.IsLeaf() {
				p.StreamBytes += parentElems * (8 + 4*delta - 4)
			}
			if !c.IsLeaf() {
				b := ce * int64(rank) * 8
				lives = append(lives, liveNode{c.Lo, c.Hi, b})
				p.RetainedValueBytes += b
			}
			walk(c, ce)
		}
	}
	walk(s, elems(s))

	// Peak live value bytes: while computing mode m's MTTKRP, the ancestors
	// of leaf m are materialized and the ancestors of the previously swept
	// leaf (m-1, cyclically) may still be live.
	pathBytes := func(prev, cur int) int64 {
		var b int64
		for _, ln := range lives {
			onPrev := ln.lo <= prev && prev < ln.hi
			onCur := ln.lo <= cur && cur < ln.hi
			if onPrev || onCur {
				b += ln.bytes
			}
		}
		return b
	}
	for m := 0; m < n; m++ {
		prev := (m + n - 1) % n
		if b := pathBytes(prev, m); b > p.PeakValueBytes {
			p.PeakValueBytes = b
		}
	}
	return p
}

// PredictBaselineCOO returns the per-iteration op count of the streaming
// COO kernel: N·R ops per nonzero per mode, N modes.
func PredictBaselineCOO(est *Estimator, rank int) int64 {
	n := int64(est.Order())
	return est.NNZ() * n * n * int64(rank)
}
