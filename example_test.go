package adatm_test

import (
	"fmt"
	"log"

	"adatm"
)

// ExampleDecompose shows the one-call path: generate (or load) a sparse
// tensor and let the model-driven adaptive engine factorize it.
func ExampleDecompose() {
	x := adatm.Generate(adatm.GenSpec{
		Dims: []int{100, 80, 60},
		NNZ:  5000,
		Rank: 3, // plant a low-rank signal
		Seed: 1,
	})
	res, err := adatm.Decompose(x, adatm.Options{Rank: 8, MaxIters: 25, Tol: 1e-5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged=%v components=%d\n", res.Converged, len(res.Lambda))
}

// ExamplePlanFor shows how to inspect the cost model's decision before
// running anything.
func ExamplePlanFor() {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{500, 400, 300, 200}, NNZ: 20000, Seed: 2})
	plan := adatm.PlanFor(x, 16, 256<<20) // 256 MiB auxiliary budget
	fmt.Println("chosen strategy:", plan.Chosen.Strategy)
	fmt.Println("predicted ops per iteration:", plan.Chosen.Pred.Ops)
}

// ExampleNewEngine shows direct engine use for custom drivers: one MTTKRP
// with the CSF baseline.
func ExampleNewEngine() {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{50, 40, 30}, NNZ: 2000, Seed: 4})
	eng, err := adatm.NewEngine(x, adatm.EngineCSF, adatm.EngineConfig{Rank: 8})
	if err != nil {
		log.Fatal(err)
	}
	factors := adatm.NVecsInit(x, 8, 2, 1, 0)
	out := &adatm.Matrix{Rows: x.Dims[0], Cols: 8, Data: make([]float64, x.Dims[0]*8)}
	eng.MTTKRP(0, factors, out)
	fmt.Println("M has", out.Rows, "rows")
}
