package model

import (
	"adatm/internal/accum"
)

// Plan-time accumulation selection. The strategy-tree choice decides *what*
// intermediate tensors to compute; this layer decides *how* each mode's
// MTTKRP output is accumulated — striped/lock-free scatter in place, or
// per-worker privatized copies with a folding reduction (see
// internal/accum). The decision is per target mode: the output height
// dims[mode] drives both the privatized footprint W·rows·R·8 (checked
// against the budget slack left after the chosen strategy's own storage)
// and the scatter's parallel width.

// AccumChoice records the accumulation decision for one target mode. Plan
// keeps the table in the chosen strategy's order; Mode names the original
// mode at that position.
type AccumChoice struct {
	Mode int `json:"mode"`
	Rows int `json:"rows"`
	accum.Choice
}

// AccumCosts maps the calibrated roofline constants into the accumulation
// model's coefficient set (the lock coefficient falls back to the default
// when the Coeffs predate lock calibration).
func (c Coeffs) AccumCosts() accum.Costs {
	return accum.Costs{NsPerOp: c.NsPerOp, NsPerByte: c.NsPerByte, NsPerLock: c.NsPerLock}
}

// fillAccum computes the per-mode accumulation table for the plan. workers
// <= 0 leaves the table with the default parallel width of 1 worker — the
// privatized path never wins there, which is the correct degenerate answer.
// The privatized footprint is budgeted against what the chosen candidate
// leaves free: Budget − (index + value + stream bytes), where the value
// bytes are the retained sum when the plan retains and the two-path peak
// otherwise, and stream bytes count only when the plan streams.
func fillAccum(p *Plan, workers int, c accum.Costs) {
	slack := int64(0)
	if p.Budget > 0 {
		slack = p.Budget - p.AuxBytes()
		if slack < 1 {
			slack = 1 // spent budget: any footprint is infeasible
		}
	}
	order := p.Chosen.Strategy.SweepOrder()
	p.Accum = p.Accum[:0]
	for m := 0; m < p.Order; m++ {
		in := accum.Input{
			Rows:    p.Dims[m],
			NNZ:     p.NNZ,
			Rank:    p.Rank,
			Workers: workers,
			// The planned engines' baseline scatter is the memoized leaf
			// contraction, which is lock-free by construction.
			LockFree: true,
			Budget:   slack,
		}
		p.Accum = append(p.Accum, AccumChoice{Mode: order[m], Rows: p.Dims[m], Choice: accum.Choose(in, c)})
	}
}

// AccumPerMode flattens the plan's accumulation table into the per-position
// strategy slice engine constructors accept (accum.Config.PerMode).
func (p *Plan) AccumPerMode() []accum.Strategy {
	if len(p.Accum) == 0 {
		return nil
	}
	out := make([]accum.Strategy, len(p.Accum))
	for i, a := range p.Accum {
		out[i] = a.Strategy
	}
	return out
}
