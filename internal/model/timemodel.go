package model

import (
	"time"

	"adatm/internal/dense"
	"adatm/internal/memo"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Roofline-style time model. Operation counts alone rank strategies well
// when every strategy is compute-bound, but memoized kernels move
// intermediate value rows through memory, so two strategies with similar op
// counts can differ in traffic. The time model predicts
//
//	time ≈ max( ops · nsPerOp , bytes · nsPerByte )
//
// with the two machine constants calibrated once per host by timing two
// tiny probe kernels (a compute-heavy Hadamard loop and a streaming copy).

// Coeffs are the calibrated machine constants.
type Coeffs struct {
	NsPerOp   float64 // nanoseconds per fused multiply–add on a factor row
	NsPerByte float64 // nanoseconds per byte of streaming traffic
	NsPerLock float64 // nanoseconds per uncontended mutex lock/unlock pair
}

// Calibrate measures the machine constants with short synthetic probes
// (~milliseconds). Deterministic workload; wall-clock measured with the
// minimum of reps.
func Calibrate() Coeffs {
	const (
		rows = 1 << 12
		r    = 32
		reps = 3
	)
	a := dense.New(rows, r)
	b := dense.New(rows, r)
	for i := range a.Data {
		a.Data[i] = float64(i%7) + 0.5
		b.Data[i] = float64(i%5) + 0.25
	}
	// Compute probe: row-wise multiply–accumulate, touching resident data.
	ops := 0
	var best time.Duration
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		acc := make([]float64, r)
		for sweep := 0; sweep < 16; sweep++ {
			for i := 0; i < rows; i++ {
				ra := a.Row(i)
				rb := b.Row(i)
				for j := 0; j < r; j++ {
					acc[j] += ra[j] * rb[j]
				}
			}
		}
		if acc[0] == -1 {
			panic("unreachable; defeats dead-code elimination")
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
		ops = 16 * rows * r
	}
	nsPerOp := float64(best.Nanoseconds()) / float64(ops)

	// Traffic probe: streaming copy over a buffer larger than L2.
	buf := make([]float64, 1<<21) // 16 MiB
	dst := make([]float64, 1<<21)
	for i := range buf {
		buf[i] = float64(i)
	}
	best = 0
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		copy(dst, buf)
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	bytes := float64(len(buf) * 8 * 2) // read + write
	nsPerByte := float64(best.Nanoseconds()) / bytes
	if dst[1] == -1 {
		panic("unreachable")
	}

	// Lock probe: uncontended striped lock/unlock pairs over rotating rows,
	// the per-nonzero synchronization cost of the scatter accumulation.
	stripes := par.NewStripes(256)
	const lockIters = 1 << 16
	best = 0
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for i := 0; i < lockIters; i++ {
			stripes.Lock(int32(i))
			stripes.Unlock(int32(i))
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	nsPerLock := float64(best.Nanoseconds()) / lockIters

	return Coeffs{NsPerOp: nsPerOp, NsPerByte: nsPerByte, NsPerLock: nsPerLock}
}

// TrafficBytes estimates the per-iteration memory traffic of a strategy:
// for every non-root node, computing it streams the parent's value rows
// (or the root's scalar values), the reduction arrays, the delta factor
// rows, and writes the node's value matrix once.
func TrafficBytes(est *Estimator, s *memo.Strategy, rank int) int64 {
	var bytes int64
	rowB := int64(rank) * 8
	var walk func(node *memo.Strategy, parentElems int64)
	walk = func(node *memo.Strategy, parentElems int64) {
		for _, c := range node.Children {
			ce := est.Distinct(c.Lo, c.Hi)
			delta := int64(node.Span() - c.Span())
			// Read: parent rows once each + delta factor rows + reduction ids.
			bytes += parentElems * (rowB + delta*rowB + 4)
			// Write: the node's value matrix.
			bytes += ce * rowB
			walk(c, ce)
		}
	}
	walk(s, est.Distinct(s.Lo, s.Hi))
	return bytes
}

// PredictTime evaluates the roofline bound for a strategy.
func PredictTime(est *Estimator, s *memo.Strategy, rank int, c Coeffs) time.Duration {
	pred := Predict(est, s, rank)
	traffic := TrafficBytes(est, s, rank)
	compute := float64(pred.Ops) * c.NsPerOp
	memoryNS := float64(traffic) * c.NsPerByte
	ns := compute
	if memoryNS > ns {
		ns = memoryNS
	}
	return time.Duration(ns)
}

// SelectByTime is Select with candidates ranked by the roofline time model
// instead of raw op counts. The candidate set and feasibility rules are
// identical; only the ordering criterion changes.
func SelectByTime(x *tensor.COO, opt Options, c Coeffs) *Plan {
	est := NewEstimator(x, 0)
	plan := SelectWithEstimator(est, opt)
	// Re-rank by predicted time; re-choose the cheapest feasible.
	plan.ByTime = true
	for i := range plan.Candidates {
		cand := &plan.Candidates[i]
		cand.PredTime = PredictTime(est, cand.Strategy, plan.Rank, c)
	}
	sortCandidatesBy(plan, func(a, b Candidate) bool { return a.PredTime < b.PredTime })
	found := false
	for _, cand := range plan.Candidates {
		if cand.Feasible {
			plan.Chosen = cand
			plan.BudgetFallback = false
			found = true
			break
		}
	}
	if !found {
		// Budget fallback: keep SelectWithEstimator's smallest-footprint
		// choice, refreshed from the slice so it carries its PredTime.
		for _, cand := range plan.Candidates {
			if cand.Name == plan.Chosen.Name {
				plan.Chosen = cand
				break
			}
		}
	}
	// The buffer decisions and the accumulation table depend on the chosen
	// candidate's footprint (budget slack), and the table now has
	// calibrated coefficients available — recompute both against the
	// time-ranked choice.
	plan.decideBuffers()
	fillAccum(plan, plan.Workers, c.AccumCosts())
	return plan
}

func sortCandidatesBy(p *Plan, less func(a, b Candidate) bool) {
	cs := p.Candidates
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && less(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
