package cpd

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"adatm/internal/dense"
	"adatm/internal/dist"
	"adatm/internal/tensor"
)

// DistResult is a sharded decomposition: the solver Result plus the
// communication the run performed.
type DistResult struct {
	Result
	// Comm is the partition's predicted per-iteration communication.
	Comm dist.CommStats
	// Messages counts transport messages actually sent (folds, expands,
	// reduces, broadcasts) over the whole run.
	Messages int64
	// Retries counts transport-level retransmissions (TCP transport only).
	Retries int64
}

// RunDist runs CP-ALS over the cluster's shards: one ALS loop per process
// (the loop Run uses), each over its shard's engine with a full factor
// replica, all communication through tr. Per mode, each process's local
// MTTKRP rows are reduced to their owners, the owners solve and normalize
// their rows against the replicated Gram-Hadamard system, and the updated
// rows are expanded back to every process touching them (see dist.Exchange).
// Every process evaluates the same fit from replicated state, so they all
// take the same convergence decision.
//
// λ, the Grams and the fit are replicated, so process 0 alone is watched:
// its loop alone builds the phase clock (CollectStats, Tracer, Metrics) and
// the observers (Health, the metrics tick, Progress). Progress adds one
// scalar all-reduce per iteration, a stop vote, so every process stops
// where process 0's callback says. Checkpoint and Audit are rejected.
// Every process checks Ctx; on the first error the transport is closed and
// the root-cause error returned, with no Result. The Result's Factors are
// gathered from the row owners, its MTTKRPTime is summed over processes,
// and its TotalTime covers the processes' loops alone.
func RunDist(x *tensor.COO, c *dist.Cluster, tr dist.Transport, opt Options) (*DistResult, error) {
	if opt.Checkpoint != nil || opt.Audit != nil {
		return nil, errors.New("cpd: a sharded run does not support Checkpoint or Audit")
	}
	if err := checkInputs(x, opt); err != nil {
		return nil, err
	}
	ex, err := dist.NewExchange(c, tr, opt.Rank, opt.Metrics)
	if err != nil {
		return nil, err
	}

	// Every process derives the same initial factors (from Init or Seed),
	// so the replicas start identical with no exchange.
	start := time.Now()
	P := c.Part.P
	results := make([]*Result, P)
	errs := make([]error, P)
	var closeOnce sync.Once
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = run(x, c.Engines[p], opt, nil, ex.Endpoint(p), p == 0)
			if errs[p] != nil {
				// Unblock every peer stuck in Recv or Send: the transport
				// close turns their blocking calls into ErrClosed.
				closeOnce.Do(func() { tr.Close() })
			}
		}(p)
	}
	wg.Wait()
	totalTime := time.Since(start)
	// Prefer the root-cause error (in process order) over the ErrClosed
	// cascade it triggered in the other processes.
	for _, rootCause := range []bool{true, false} {
		for p, err := range errs {
			if err != nil && (!rootCause || !errors.Is(err, dist.ErrClosed)) {
				return nil, fmt.Errorf("cpd: process %d: %w", p, err)
			}
		}
	}

	res := &DistResult{Result: *results[0], Comm: c.Comm, Messages: ex.Messages(), Retries: ex.Retries()}
	res.TotalTime = totalTime
	for _, r := range results[1:] {
		res.MTTKRPTime += r.MTTKRPTime
	}
	res.Factors = make([]*dense.Matrix, x.Order())
	replicas := make([]*dense.Matrix, P)
	for m := range res.Factors {
		for p, r := range results {
			replicas[p] = r.Factors[m]
		}
		res.Factors[m] = ex.Gather(m, replicas)
	}
	return res, nil
}
