package cpd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"adatm/internal/coo"
	"adatm/internal/dense"
	"adatm/internal/tensor"
)

// factorsConsistent checks the invariants a partial Result must satisfy:
// every factor column-normalized (unit 2-norm or identically zero) and all
// entries finite.
func factorsConsistent(t *testing.T, res *Result) {
	t.Helper()
	for m, f := range res.Factors {
		for j := 0; j < f.Cols; j++ {
			s := 0.0
			for i := 0; i < f.Rows; i++ {
				v := f.At(i, j)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("factor %d has non-finite entry", m)
				}
				s += v * v
			}
			norm := math.Sqrt(s)
			if norm > 1e-9 && math.Abs(norm-1) > 1e-6 {
				t.Fatalf("factor %d column %d norm %g, want 1 or 0", m, j, norm)
			}
		}
	}
}

func TestRunCancellation(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 800, 0.6, 41)
	eng := coo.New(x, 1)

	// Cancel after the second completed iteration via Progress; the run
	// must stop within one sub-iteration of the third.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(x, eng, Options{
		Rank: 4, MaxIters: 50, Tol: 1e-12, Seed: 5, Ctx: ctx,
		Progress: func(s IterStats) bool {
			if s.Iter == 2 {
				cancel()
			}
			return true
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("want partial result on cancellation")
	}
	if !res.Stopped {
		t.Error("Stopped not set on cancellation")
	}
	if res.Iters != 2 {
		t.Errorf("Iters = %d, want 2 (cancelled during iteration 3)", res.Iters)
	}
	if res.TotalTime <= 0 {
		t.Error("TotalTime not set on cancellation")
	}
	factorsConsistent(t, res)
}

func TestRunCancelledBeforeStart(t *testing.T) {
	x := tensor.RandomClustered(3, 10, 200, 0.6, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(x, coo.New(x, 1), Options{Rank: 3, MaxIters: 10, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Iters != 0 {
		t.Fatalf("want zero-iteration partial result, got %+v", res)
	}
	// Regression: a run stopped before its first fit computation must report
	// NaN, not a stale zero that reads as a legitimate (terrible) fit.
	if !math.IsNaN(res.Fit) {
		t.Errorf("Fit = %v on a zero-iteration run, want NaN", res.Fit)
	}
}

func TestRunProgressStop(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 800, 0.6, 43)
	var seen []int
	res, err := Run(x, coo.New(x, 1), Options{
		Rank: 4, MaxIters: 50, Tol: 1e-12, Seed: 5,
		Progress: func(s IterStats) bool {
			seen = append(seen, s.Iter)
			if s.Elapsed < 0 || s.MTTKRPTime <= 0 {
				t.Errorf("iteration %d: bad timings %+v", s.Iter, s)
			}
			return s.Iter < 3
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("Stopped not set after Progress returned false")
	}
	if res.Iters != 3 {
		t.Errorf("Iters = %d, want 3", res.Iters)
	}
	if len(seen) != 3 {
		t.Errorf("Progress called %d times, want 3", len(seen))
	}
	if len(res.Lambda) != 4 {
		t.Errorf("Lambda not sealed on early stop: %v", res.Lambda)
	}
	factorsConsistent(t, res)
}

// TestRunCollectStats checks the CollectStats breakdown. Every section of
// the loop must run inside a phase: the phase clock's own counts must equal
// the loop's sections, one Gram for the initial Grams, one Fit for the
// tensor norm, and per iteration one MTTKRP, Gram (H), Solve, Normalize
// and Gram (the updated factor's) per mode plus one Fit. The phases must
// also cover at least 80 % of the run's wall clock, in at least one of
// three runs: a missing phase falls short in every run, while a run the
// host's scheduler stalls outside the phases falls short only by chance.
func TestRunCollectStats(t *testing.T) {
	x := tensor.RandomClustered(3, 60, 30000, 0.6, 44)
	n := x.Order()
	var covered []string
	for attempt := 0; attempt < 3; attempt++ {
		res, err := Run(x, coo.New(x, 1), Options{
			Rank: 8, MaxIters: 10, Tol: 1e-15, Seed: 5, CollectStats: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs := res.Stats
		if rs == nil {
			t.Fatal("Stats nil with CollectStats")
		}
		sections := int64(res.Iters * n)
		want := map[Phase]int64{
			PhaseMTTKRP:    sections,
			PhaseGram:      1 + 2*sections,
			PhaseSolve:     sections,
			PhaseNormalize: sections,
			PhaseFit:       1 + int64(res.Iters),
		}
		for p, c := range want {
			if got := rs.Phases[p].Count; got != c {
				t.Errorf("phase %s ran %d sections, want %d", p, got, c)
			}
			if rs.Phases[p].Time <= 0 {
				t.Errorf("phase %s has no time: %+v", p, rs.Phases[p])
			}
		}
		// COO op model: nnz·N·R per call.
		wantOps := sections * int64(x.NNZ()) * int64(n) * 8
		if got := rs.Phases[PhaseMTTKRP].Ops; got != wantOps {
			t.Errorf("MTTKRP ops = %d, want %d", got, wantOps)
		}
		var modeSum PhaseStats
		for _, mp := range rs.ModeMTTKRP {
			modeSum.Time += mp.Time
			modeSum.Count += mp.Count
			modeSum.Ops += mp.Ops
		}
		if modeSum != rs.Phases[PhaseMTTKRP] {
			t.Errorf("per-mode MTTKRP sum %+v != phase total %+v", modeSum, rs.Phases[PhaseMTTKRP])
		}
		if rs.SteadyIters != int64(res.Iters)-1 {
			t.Errorf("SteadyIters = %d, want %d", rs.SteadyIters, res.Iters-1)
		}
		// The phases never overlap, so their sum cannot pass the wall clock.
		sum := rs.PhaseTimeSum()
		if sum > res.TotalTime {
			t.Errorf("phase sum %v exceeds TotalTime %v", sum, res.TotalTime)
		}
		if t.Failed() || float64(sum) >= 0.80*float64(res.TotalTime) {
			return
		}
		covered = append(covered, fmt.Sprintf("%v of %v", sum, res.TotalTime))
	}
	t.Errorf("phase sum covers <80%% of TotalTime in every run: %s", strings.Join(covered, ", "))
}

// Results must be bit-identical with and without stats collection: the
// instrumentation only observes.
func TestCollectStatsDoesNotPerturbResult(t *testing.T) {
	x := tensor.RandomClustered(3, 15, 600, 0.6, 45)
	base, err := Run(x, coo.New(x, 1), Options{Rank: 3, MaxIters: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Run(x, coo.New(x, 1), Options{Rank: 3, MaxIters: 6, Seed: 9, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Fit != inst.Fit || base.Iters != inst.Iters {
		t.Fatalf("instrumented run diverged: fit %v vs %v, iters %d vs %d",
			base.Fit, inst.Fit, base.Iters, inst.Iters)
	}
	for m := range base.Factors {
		if base.Factors[m].MaxAbsDiff(inst.Factors[m]) != 0 {
			t.Errorf("factor %d differs under instrumentation", m)
		}
	}
}

// A malformed engine input surfaces as an error from Run, not a panic.
func TestRunPropagatesEngineError(t *testing.T) {
	x := tensor.RandomClustered(3, 10, 200, 0.6, 46)
	eng := coo.New(x, 1)
	_, err := Run(x, eng, Options{Rank: 3, MaxIters: 2, Seed: 1,
		Init: []*dense.Matrix{
			dense.New(x.Dims[0], 3), dense.New(x.Dims[1], 3), dense.New(x.Dims[2], 3),
		}})
	if err != nil {
		t.Fatalf("well-formed run errored: %v", err)
	}
}

// Progress sees every completed iteration, the converging one included, and
// a stop vote on that iteration leaves the run converged, not stopped.
func TestRunProgressSeesConvergingIteration(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 800, 0.6, 47)
	calls := 0
	res, err := Run(x, coo.New(x, 1), Options{
		Rank: 3, MaxIters: 200, Tol: 1e-4, Seed: 5,
		Progress: func(IterStats) bool { calls++; return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("run did not converge in %d iterations", res.Iters)
	}
	if calls != res.Iters {
		t.Errorf("Progress called %d times over %d iterations", calls, res.Iters)
	}

	last := res.Iters
	res, err = Run(x, coo.New(x, 1), Options{
		Rank: 3, MaxIters: 200, Tol: 1e-4, Seed: 5,
		Progress: func(s IterStats) bool { return s.Iter < last },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != last || !res.Converged || res.Stopped {
		t.Errorf("stop vote on the converging iteration: iters %d converged %v stopped %v, want %d true false",
			res.Iters, res.Converged, res.Stopped, last)
	}
}
