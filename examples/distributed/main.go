// Sharded decomposition: score the partitioners' communication footprints
// with the cost model, then run the sharded CP-ALS over simulated processes
// and check that it reaches the shared-memory solver's solution: the run
// exits non-zero when the two fits differ by more than 1e-12.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math"

	"adatm"
)

func main() {
	x := adatm.Generate(adatm.GenSpec{
		Name: "web", Dims: []int{5000, 4000, 800, 365}, NNZ: 200000,
		Skew: []float64{0.6, 0.6, 0.8, 0.1}, Seed: 31,
	})
	fmt.Println("tensor:", x)
	const procs, rank = 8, 16

	plan, err := adatm.PartitionPlanFor(x, procs, rank, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("\n", plan.String())

	// Same options on both paths but Procs: the sharded run is the
	// single-node ALS loop per process plus a row exchange, so only float
	// reassociation of the distributed sums separates the two fits.
	// DecomposeDist is Decompose plus the run's communication accounting.
	opt := adatm.Options{Rank: rank, MaxIters: 6, Tol: 1e-12, Seed: 7, Engine: adatm.EngineCSF}
	shared, err := adatm.Decompose(x, opt)
	if err != nil {
		log.Fatal(err)
	}
	opt.Procs = procs
	distributed, err := adatm.DecomposeDist(x, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshared-memory fit:  %.10f\n", shared.Fit)
	fmt.Printf("distributed fit:    %.10f   (difference %.2e — FP reassociation only)\n",
		distributed.Fit, shared.Fit-distributed.Fit)
	fmt.Printf("distributed run:    %d messages over %s partitioning, %.1f MiB/iter predicted\n",
		distributed.Messages, plan.Chosen.Name, float64(distributed.Comm.VolumeBytes(rank))/(1<<20))
	if d := math.Abs(shared.Fit - distributed.Fit); !(d <= 1e-12) {
		log.Fatalf("sharded fit differs from the shared-memory fit by %.2e > 1e-12", d)
	}
}
