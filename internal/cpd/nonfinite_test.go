package cpd

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"adatm/internal/ckpt"
	"adatm/internal/coo"
	"adatm/internal/dense"
	"adatm/internal/dist"
	"adatm/internal/engine"
	"adatm/internal/tensor"
)

// nanEngine decorates an engine: the MTTKRP of mode poisonMode in
// iteration poisonIter (counted by that mode's calls) comes back all NaN.
type nanEngine struct {
	engine.Engine
	calls int
}

const poisonIter, poisonMode = 3, 1

func (e *nanEngine) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if err := e.Engine.MTTKRP(mode, factors, out); err != nil {
		return err
	}
	if mode == poisonMode {
		e.calls++
		if e.calls == poisonIter {
			for i := range out.Data {
				out.Data[i] = math.NaN()
			}
		}
	}
	return nil
}

func checkNonFinite(t *testing.T, label string, err error, maxIters int) {
	t.Helper()
	var nf *NonFiniteError
	if !errors.As(err, &nf) {
		t.Fatalf("%s: err = %v, want a *NonFiniteError", label, err)
	}
	if nf.Iter != poisonIter || nf.Mode != poisonMode {
		t.Errorf("%s: stopped at iteration %d mode %d, want iteration %d mode %d",
			label, nf.Iter, nf.Mode, poisonIter, poisonMode)
	}
	if nf.Iter >= maxIters {
		t.Errorf("%s: ran to iteration %d of %d", label, nf.Iter, maxIters)
	}
}

// A NaN in the numerics stops the run with a typed error naming the
// iteration and mode, instead of iterating silently to MaxIters, and the
// last checkpoint keeps the last finite iteration.
func TestRunStopsOnNonFinite(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 900, 0.6, 811)
	dir := filepath.Join(t.TempDir(), "ck")
	opt := Options{Rank: 4, MaxIters: 20, Tol: 1e-300, Seed: 3, Workers: 1,
		Checkpoint: &CheckpointConfig{Dir: dir, Every: 1}}
	res, err := Run(x, &nanEngine{Engine: coo.New(x, 1)}, opt)
	checkNonFinite(t, "single-node", err, opt.MaxIters)
	if res == nil || res.Iters >= opt.MaxIters {
		t.Fatalf("single-node: result %+v, want a partial result short of MaxIters", res)
	}
	if res.Iters != poisonIter-1 || math.IsNaN(res.Fit) {
		t.Errorf("single-node: Iters = %d, Fit = %g; want the last finite iteration %d", res.Iters, res.Fit, poisonIter-1)
	}
	mgr, err := ckpt.NewManager(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := mgr.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if c.Iter != poisonIter-1 {
		t.Errorf("latest checkpoint is iteration %d, want the last finite one %d", c.Iter, poisonIter-1)
	}
}

// The sharded loop stops the same way on every process: λ is replicated
// after its all-reduce, so no process is left waiting for a peer.
func TestRunDistStopsOnNonFinite(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 900, 0.6, 811)
	part := dist.RandomPartition(x, 2, 5)
	c := dist.NewCluster(x, part, func(shard *tensor.COO) engine.Engine {
		return &nanEngine{Engine: coo.New(shard, 1)}
	})
	tr := dist.NewChanTransport(2)
	defer tr.Close()
	opt := Options{Rank: 4, MaxIters: 20, Tol: 1e-300, Seed: 3, Workers: 1}
	_, err := RunDist(x, c, tr, opt)
	checkNonFinite(t, "P=2", err, opt.MaxIters)
}
