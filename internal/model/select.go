package model

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"adatm/internal/accum"
	"adatm/internal/memo"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Candidate is one strategy considered by the selector, with its
// predictions and feasibility under the memory budget.
type Candidate struct {
	Name     string
	Strategy *memo.Strategy
	Pred     Prediction
	// PredTime is the roofline time-model forecast; zero unless selection
	// ranked by predicted time (SelectByTime).
	PredTime time.Duration
	Feasible bool
	// est is the estimator over the strategy's mode order that the
	// predictions came from.
	est *Estimator
}

// Plan is the selector's full output: every candidate it scored (sorted by
// predicted ops) and the chosen one. Beyond the choice itself, the plan
// records everything the audit layer needs to reconcile the decision against
// measurements later: the tensor shape, the estimator's distinct-tuple table
// (the model's inputs), and why the chosen candidate won.
type Plan struct {
	Order  int
	Rank   int
	Budget int64 // bytes; <= 0 means unbounded
	Dims   []int // mode dimensions in the chosen strategy's mode order
	NNZ    int64
	Exact  bool // distinct counts were exact, not sketched
	ByTime bool // ranked by the roofline time model, not op counts
	// BudgetFallback reports that no candidate fit the budget and the
	// smallest-footprint candidate was chosen instead of the op-optimal one.
	BudgetFallback bool
	// Ranges is the estimator's distinct-tuple table (all contiguous
	// ranges of positions in the chosen strategy's mode order) — the raw
	// inputs the predictions were computed from.
	Ranges     []RangeCount
	Candidates []Candidate
	Chosen     Candidate
	// Workers is the parallel width the accumulation table was computed
	// for (from Options.Workers, defaulting to GOMAXPROCS).
	Workers int
	// Accum is the per-target-mode output-accumulation decision: privatized
	// per-worker copies versus in-place scatter, with the model's evidence.
	// It is indexed by position in the chosen strategy's mode order.
	Accum []AccumChoice
	// Retain reports that the engine keeps every intermediate's value
	// storage allocated across sweeps: the budget is unbounded, or the
	// chosen candidate's index plus retained value bytes fit it. Decided
	// after the choice, so it never changes which tree is picked.
	Retain bool
	// Stream reports that the non-leaf children of the root store their
	// reduction as streamed tuples (Prediction.StreamBytes): the budget is
	// unbounded, or index bytes, value bytes (retained or peak, following
	// Retain) and stream bytes fit it. Decided after Retain and, like it,
	// never changes the tree.
	Stream bool
}

// Options configures Select.
type Options struct {
	Rank int
	// Budget caps predicted auxiliary memory (index + peak value bytes);
	// <= 0 disables the cap.
	Budget int64
	// Workers is the parallel width the kernels will run with; used by the
	// accumulation model (<= 0 → GOMAXPROCS).
	Workers int
}

// Select runs the model-driven selection for x over the natural mode
// order: estimate the projection sizes with the default sketch, enumerate
// the candidate strategy family (flat, every two-group split, balanced
// binary, and the DP-optimal binary tree), score each with the cost model,
// and choose the cheapest feasible candidate.
func Select(x *tensor.COO, opt Options) *Plan {
	return SelectWithEstimator(NewEstimator(x, 0), opt)
}

// SelectWithEstimator is Select with a prebuilt estimator (so callers can
// reuse one estimator across ranks and budgets).
func SelectWithEstimator(est *Estimator, opt Options) *Plan {
	return choose([]sweepOrder{{est: est}}, opt)
}

// sweepOrder is one mode order the selector scores: modes is the original
// mode at each position (nil: natural), est the estimator over the tensor
// viewed in that order, and prefix starts the names of its candidates.
type sweepOrder struct {
	prefix string
	modes  []int
	est    *Estimator
}

// choose scores the candidate family over every order, in the given order
// of orders, and chooses the cheapest feasible (order, tree) pair. Among
// equal predictions the earlier candidate wins.
func choose(orders []sweepOrder, opt Options) *Plan {
	first := orders[0].est
	n := first.Order()
	rank := opt.Rank
	if rank <= 0 {
		rank = 16
	}
	plan := &Plan{Order: n, Rank: rank, Budget: opt.Budget, NNZ: first.NNZ()}

	for _, o := range orders {
		add := func(name string, s *memo.Strategy) {
			s.Modes = o.modes
			pred := Predict(o.est, s, rank)
			feasible := opt.Budget <= 0 || pred.IndexBytes+pred.PeakValueBytes <= opt.Budget
			plan.Candidates = append(plan.Candidates, Candidate{
				Name: o.prefix + name, Strategy: s, Pred: pred, Feasible: feasible, est: o.est,
			})
		}
		add("flat", memo.Flat(n))
		for s := 1; s < n; s++ {
			add(fmt.Sprintf("2group@%d", s), memo.TwoGroup(n, s))
		}
		if n >= 3 {
			add("balanced", memo.Balanced(n))
		}
		if n >= 3 {
			if dp := dpBinary(o.est, rank); dp != nil {
				add("dp-binary", dp)
			}
		}
	}

	// Deduplicate structurally identical candidates (e.g. balanced ==
	// dp-binary, or 2group == balanced at n=3, or two names for one
	// order), keeping the first name.
	plan.Candidates = dedupCandidates(plan.Candidates)

	sort.SliceStable(plan.Candidates, func(a, b int) bool {
		return plan.Candidates[a].Pred.Ops < plan.Candidates[b].Pred.Ops
	})
	chosen := -1
	for i, c := range plan.Candidates {
		if c.Feasible {
			chosen = i
			break
		}
	}
	if chosen < 0 {
		// Nothing fits the budget: fall back to the candidate with the
		// smallest footprint (flat is typically the floor).
		plan.BudgetFallback = true
		best := 0
		for i, c := range plan.Candidates {
			if c.Pred.IndexBytes+c.Pred.PeakValueBytes <
				plan.Candidates[best].Pred.IndexBytes+plan.Candidates[best].Pred.PeakValueBytes {
				best = i
			}
		}
		chosen = best
	}
	plan.Chosen = plan.Candidates[chosen]
	est := plan.Chosen.est
	plan.Dims, plan.Exact, plan.Ranges = est.Dims(), est.Exact(), est.Ranges()
	plan.Workers = opt.Workers
	if plan.Workers <= 0 {
		plan.Workers = par.MaxWorkers()
	}
	plan.decideBuffers()
	fillAccum(plan, plan.Workers, accum.DefaultCosts)
	return plan
}

// decideBuffers sets Retain and then Stream for the chosen candidate:
// retaining costs its retained value bytes instead of the two-path peak,
// and streaming costs its stream bytes on top of the value bytes the
// retention decision leaves.
func (p *Plan) decideBuffers() {
	pred := p.Chosen.Pred
	p.Retain = p.Budget <= 0 || pred.IndexBytes+pred.RetainedValueBytes <= p.Budget
	p.Stream = p.Budget <= 0 || pred.IndexBytes+p.valueBytes()+pred.StreamBytes <= p.Budget
}

// valueBytes is the chosen candidate's value storage under the retention
// decision: the retained sum when the plan retains, else the two-path peak.
func (p *Plan) valueBytes() int64 {
	if p.Retain {
		return p.Chosen.Pred.RetainedValueBytes
	}
	return p.Chosen.Pred.PeakValueBytes
}

// AuxBytes is the chosen engine's predicted auxiliary memory under the
// plan's buffer decisions: index bytes, value bytes, and stream bytes when
// it streams.
func (p *Plan) AuxBytes() int64 {
	b := p.Chosen.Pred.IndexBytes + p.valueBytes()
	if p.Stream {
		b += p.Chosen.Pred.StreamBytes
	}
	return b
}

func dedupCandidates(cs []Candidate) []Candidate {
	out := cs[:0]
	for _, c := range cs {
		dup := false
		for _, kept := range out {
			if kept.Strategy.Equal(c.Strategy) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// dpBinary finds the binary strategy minimizing predicted ops by dynamic
// programming over contiguous mode ranges. The cost of materializing the
// two children of a node covering [i, j) is elems(i,j)·(span+2)·R
// regardless of the split, so the DP chooses splits to minimize the
// descendants' costs.
func dpBinary(est *Estimator, rank int) *memo.Strategy {
	n := est.Order()
	cost := make([][]int64, n+1)
	split := make([][]int, n+1)
	for i := range cost {
		cost[i] = make([]int64, n+1)
		split[i] = make([]int, n+1)
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length <= n; i++ {
			j := i + length
			own := est.Distinct(i, j) * int64(length+2) * int64(rank)
			best := int64(math.MaxInt64)
			bestS := -1
			for s := i + 1; s < j; s++ {
				c := cost[i][s] + cost[s][j]
				if c < best {
					best = c
					bestS = s
				}
			}
			cost[i][j] = own + best
			split[i][j] = bestS
		}
	}
	if n < 2 {
		return nil
	}
	return memo.BinaryFromSplits(n, func(lo, hi int) int { return split[lo][hi] })
}

// Reason names why the chosen candidate won, in the vocabulary the audit
// ledger records: "op-optimal" (cheapest feasible by predicted ops),
// "time-optimal" (cheapest feasible by the roofline time model), or
// "budget-fallback" (nothing fit; smallest footprint chosen).
func (p *Plan) Reason() string {
	switch {
	case p.BudgetFallback:
		return "budget-fallback"
	case p.ByTime:
		return "time-optimal"
	default:
		return "op-optimal"
	}
}

// String renders the plan as a small report table.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: order=%d rank=%d budget=%s\n", p.Order, p.Rank, fmtBytes(p.Budget))
	fmt.Fprintf(&b, "%-12s %-28s %14s %12s %12s %s\n", "candidate", "tree", "pred ops", "index", "peak vals", "feasible")
	for _, c := range p.Candidates {
		mark := ""
		if c.Strategy.Equal(p.Chosen.Strategy) && c.Name == p.Chosen.Name {
			mark = "  <= chosen"
		}
		fmt.Fprintf(&b, "%-12s %-28s %14d %12s %12s %-5v%s\n",
			c.Name, c.Strategy, c.Pred.Ops, fmtBytes(c.Pred.IndexBytes), fmtBytes(c.Pred.PeakValueBytes), c.Feasible, mark)
	}
	if p.BudgetFallback {
		fmt.Fprintf(&b, "budget fallback: no candidate fits %s; chose the smallest footprint\n", fmtBytes(p.Budget))
	}
	fmt.Fprintf(&b, "retain buffers: %v (retained value bytes %s)\n", p.Retain, fmtBytes(p.Chosen.Pred.RetainedValueBytes))
	fmt.Fprintf(&b, "stream root children: %v (stream bytes %s)\n", p.Stream, fmtBytes(p.Chosen.Pred.StreamBytes))
	if len(p.Accum) > 0 {
		fmt.Fprintf(&b, "accum (workers=%d):\n", p.Workers)
		fmt.Fprintf(&b, "  %-6s %10s %-10s %12s %12s %12s %s\n",
			"mode", "rows", "strategy", "scatter", "privatize", "footprint", "feasible")
		for _, a := range p.Accum {
			fmt.Fprintf(&b, "  %-6d %10d %-10s %12s %12s %12s %v\n",
				a.Mode, a.Rows, a.Strategy,
				time.Duration(a.ScatterNS), time.Duration(a.PrivatizeNS),
				fmtBytes(a.FootprintBytes), a.Feasible)
		}
	}
	return b.String()
}

func fmtBytes(b int64) string {
	switch {
	case b <= 0:
		return "-"
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	}
}
