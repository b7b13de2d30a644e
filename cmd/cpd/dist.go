package main

import (
	"fmt"
	"os"

	"adatm"
)

// distFlags carries the CLI values the distributed run path needs.
type distFlags struct {
	rank, iters    int
	tol            float64
	seed           int64
	workers, procs int
	partition      string
	transport      string
	engine         string
	fittrace       bool
	jsonOut        bool
	outPfx         string
	modelPath      string
}

// runDist executes the sharded solver and reports through the same channels
// the single-node path uses (the dist result converts to a Result).
func runDist(x *adatm.Tensor, obsst *obsState, f distFlags) {
	dres, err := adatm.DecomposeDist(x, adatm.DistOptions{
		Rank: f.rank, MaxIters: f.iters, Tol: f.tol, Seed: f.seed, Workers: f.workers,
		Procs: f.procs, Partition: f.partition, Transport: f.transport,
		Engine: adatm.EngineKind(f.engine), TrackFit: f.fittrace,
		Metrics: obsst.Metrics, Audit: obsst.Audit,
	})
	if err != nil {
		fatal(err)
	}
	res := adatm.DistResultToResult(dres)

	if f.jsonOut {
		if err := writeReport(os.Stdout, f.engine, f.rank, res, obsst.latestAudit(), nil); err != nil {
			fatal(err)
		}
	} else {
		if f.fittrace {
			for i, fit := range res.FitTrace {
				fmt.Printf("iter %3d  fit %.8f\n", i+1, fit)
			}
		}
		fmt.Printf("engine=%s rank=%d iters=%d converged=%v fit=%.6f\n", f.engine, f.rank, res.Iters, res.Converged, res.Fit)
		fmt.Printf("total=%v mttkrp=%v (%.0f%%)\n", res.TotalTime.Round(1e6), res.MTTKRPTime.Round(1e6),
			100*float64(res.MTTKRPTime)/float64(res.TotalTime))
		fmt.Printf("dist procs=%d partition=%s transport=%s volume=%dB/iter messages=%d retries=%d\n",
			f.procs, f.partition, f.transport, dres.Comm.VolumeBytes(f.rank), dres.Messages, dres.Retries)
		fmt.Printf("lambda=%v\n", res.Lambda)
	}

	if f.modelPath != "" {
		if err := adatm.SaveModel(f.modelPath, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote model to %s\n", f.modelPath)
	}
	if f.outPfx != "" {
		if err := writeVector(f.outPfx+"_lambda.txt", res.Lambda); err != nil {
			fatal(err)
		}
		for m, fac := range res.Factors {
			if err := writeMatrix(fmt.Sprintf("%s_mode%d.txt", f.outPfx, m), fac); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d factor files with prefix %s\n", len(res.Factors)+1, f.outPfx)
	}
	obsst.finish(f.engine, f.rank, res)
}
