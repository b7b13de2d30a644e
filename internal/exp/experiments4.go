package exp

import (
	"fmt"
	"math/rand"

	"adatm"
	"adatm/internal/model"
	"adatm/internal/tensor"
)

// correlatedTensor builds an order-4 tensor whose modes 0 and 2 are nearly
// functionally dependent — the {0,2} projection compresses massively, but
// the pair is not adjacent, so only mode permutation can exploit it.
func correlatedTensor(nnz int, seed int64) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	dims := []int{4000, 3000, 4000, 2000}
	x := tensor.NewCOO(dims, nnz)
	idx := make([]tensor.Index, 4)
	for k := 0; k < nnz; k++ {
		i0 := rng.Intn(dims[0])
		idx[0] = tensor.Index(i0)
		idx[1] = tensor.Index(rng.Intn(dims[1]))
		idx[2] = tensor.Index((i0*7 + rng.Intn(3)) % dims[2])
		idx[3] = tensor.Index(rng.Intn(dims[3]))
		x.Append(idx, rng.Float64()+0.5)
	}
	x.Dedup()
	return x
}

// E16PermutationAblation compares natural-order adaptive selection against
// permutation-aware selection on a tensor whose compressible mode pair is
// non-adjacent — the final dimension of the strategy space.
func E16PermutationAblation(cfg Config) *Table {
	t := &Table{
		ID:      "E16",
		Title:   fmt.Sprintf("ablation: mode-order-aware selection (correlated non-adjacent modes, R=%d)", cfg.rank()),
		Columns: []string{"selector", "order", "tree", "pred ops", "sweep time"},
	}
	nnz := 200000
	if cfg.Quick {
		nnz = 40000
	}
	x := correlatedTensor(nnz, 999+cfg.Seed)

	// Baseline: csf.
	csfEng, err := adatm.NewEngine(x, adatm.EngineCSF, adatm.EngineConfig{Rank: cfg.rank(), Workers: cfg.Workers})
	if err != nil {
		panic(err)
	}
	t.Add("csf baseline", "-", "-", "-", fmtDur(TimeSweeps(csfEng, x, cfg.rank(), 2, 41)))

	// Natural-order adaptive.
	plan := adatm.PlanFor(x, cfg.rank(), 0)
	natEng, err := adatm.NewEngine(x, adatm.EngineAdaptive, adatm.EngineConfig{Rank: cfg.rank(), Workers: cfg.Workers})
	if err != nil {
		panic(err)
	}
	t.Add("adaptive (natural)", "[0 1 2 3]", plan.Chosen.Strategy.String(), plan.Chosen.Pred.Ops,
		fmtDur(TimeSweeps(natEng, x, cfg.rank(), 2, 41)))

	// Permutation-aware adaptive, including the grouping the heuristics
	// would have to discover.
	perms := model.HeuristicPermutations(x)
	perms["group-02"] = []int{0, 2, 1, 3}
	pp := model.SelectPermuted(x, model.Options{Rank: cfg.rank()}, perms)
	permEng, err := adatm.NewEngine(x, adatm.EngineAdaptive, adatm.EngineConfig{Rank: cfg.rank(), Workers: cfg.Workers, Strategy: pp.Chosen.Strategy})
	if err != nil {
		panic(err)
	}
	// Time the sweep in the strategy's own order (TimeSweeps uses the
	// natural order, which would defeat the reuse across the order).
	order := pp.Chosen.Strategy.SweepOrder()
	d := timeSweepsOrdered(permEng, x, cfg.rank(), 2, 41, order)
	t.Add(fmt.Sprintf("adaptive-perm (%s)", pp.Chosen.Name), fmt.Sprint(order),
		pp.Chosen.Strategy.String(), pp.Chosen.Pred.Ops, fmtDur(d))

	t.Notes = append(t.Notes, "modes 0 and 2 are ~functionally dependent; grouping them needs another mode order")
	return t
}
