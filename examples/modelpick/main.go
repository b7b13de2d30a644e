// Modelpick: watch the cost model choose different memoization strategies
// as the tensor order grows and as the memory budget tightens — the
// "model-driven" part of the paper, isolated.
//
//	go run ./examples/modelpick
package main

import (
	"fmt"

	"adatm"
)

func main() {
	fmt.Println("--- strategy choice vs tensor order ---")
	for _, order := range []int{3, 4, 6, 8} {
		dims := make([]int, order)
		skew := make([]float64, order)
		for i := range dims {
			dims[i] = 5000
			skew[i] = 0.7
		}
		x := adatm.Generate(adatm.GenSpec{Name: "x", Dims: dims, NNZ: 150000, Skew: skew, Seed: int64(order)})
		plan := adatm.PlanFor(x, 16, 0)
		flatOps := opsOf(plan, "flat")
		fmt.Printf("order %d: chose %-10s %-24s  predicted %5.2fx fewer ops than flat\n",
			order, plan.Chosen.Name, plan.Chosen.Strategy, float64(flatOps)/float64(plan.Chosen.Pred.Ops))
	}

	fmt.Println("\n--- strategy choice vs memory budget (order 6) ---")
	dims := []int{5000, 5000, 5000, 5000, 5000, 5000}
	x := adatm.Generate(adatm.GenSpec{Name: "x", Dims: dims, NNZ: 150000,
		Skew: []float64{0.7, 0.7, 0.7, 0.7, 0.7, 0.7}, Seed: 6})
	full := adatm.PlanFor(x, 16, 0)
	fullBytes := full.Chosen.Pred.IndexBytes + full.Chosen.Pred.PeakValueBytes
	for _, frac := range []float64{1.0, 0.6, 0.3, 0.05} {
		budget := int64(frac * float64(fullBytes))
		plan := adatm.PlanFor(x, 16, budget)
		aux := plan.Chosen.Pred.IndexBytes + plan.Chosen.Pred.PeakValueBytes
		fmt.Printf("budget %5.0f%% (%8.2f MiB): chose %-10s %-24s aux %.2f MiB, feasible=%v\n",
			100*frac, mib(budget), plan.Chosen.Name, plan.Chosen.Strategy, mib(aux), plan.Chosen.Feasible)
	}

	fmt.Println("\n--- permutation-aware selection (correlated non-adjacent modes) ---")
	// Modes 0 and 2 are nearly functionally dependent: the {0,2} projection
	// compresses massively, but only after a permutation makes them
	// adjacent.
	corr := correlated(120000, 77)
	natural := adatm.PlanFor(corr, 16, 0)
	pp := adatm.PlanPermutedFor(corr, 16, 0)
	fmt.Printf("natural order:  %-24s predicted ops %d\n", natural.Chosen.Strategy, natural.Chosen.Pred.Ops)
	fmt.Printf("permuted (%s): order=%v %-18s predicted ops %d (%.2fx fewer)\n",
		pp.Chosen.Name, pp.Chosen.Strategy.SweepOrder(), pp.Chosen.Strategy, pp.Chosen.Pred.Ops,
		float64(natural.Chosen.Pred.Ops)/float64(pp.Chosen.Pred.Ops))

	fmt.Println("\n--- the full plan for the order-6 tensor ---")
	fmt.Print(full)
}

// correlated builds an order-4 tensor where mode 2 is a near-function of
// mode 0.
func correlated(nnz int, seed int64) *adatm.Tensor {
	spec := adatm.GenSpec{Dims: []int{4000, 3000, 4000, 2000}, NNZ: nnz, Seed: seed}
	x := adatm.Generate(spec)
	for k := range x.Inds[2] {
		x.Inds[2][k] = (x.Inds[0][k]*7 + x.Inds[2][k]%3) % adatm.Index(x.Dims[2])
	}
	x.Dedup()
	return x
}

func opsOf(plan *adatm.Plan, name string) int64 {
	for _, c := range plan.Candidates {
		if c.Name == name {
			return c.Pred.Ops
		}
	}
	return 0
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
