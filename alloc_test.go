package adatm_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"adatm"
)

// TestDecomposeSteadyZeroAlloc pins the steady ALS iteration at zero
// allocations through the public API. The adaptive engine retains its
// intermediates under an unbounded budget, so a run of 2k iterations must
// allocate exactly as often as a run of k: the k extra iterations allocate
// nothing. Tol is the smallest positive float, so both runs go the full
// distance.
func TestDecomposeSteadyZeroAlloc(t *testing.T) {
	x := testTensor(t)
	const rank = 8
	eng, plan, err := adatm.NewEnginePlanned(x, adatm.EngineAdaptive, adatm.EngineConfig{Rank: rank, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Retain {
		t.Fatal("unbounded plan does not retain its intermediates")
	}
	// Measure with the collector off: a GC cycle overlapping one run makes
	// the runtime allocate (mark-worker goroutines, new threads), which the
	// process-wide Mallocs counter would charge to that run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(iters int) uint64 {
		opt := adatm.Options{Rank: rank, MaxIters: iters, Tol: math.SmallestNonzeroFloat64, Seed: 3, Workers: 1}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := adatm.DecomposeWith(x, eng, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != iters {
			t.Fatalf("run stopped after %d of %d iterations", res.Iters, iters)
		}
		return after.Mallocs - before.Mallocs
	}
	mallocs(2) // the first run allocates the engine's retained buffers
	const k = 5
	short, long := mallocs(k), mallocs(2*k)
	if short != long {
		t.Errorf("%d iterations made %d allocations, %d made %d: the steady iteration allocates",
			k, short, 2*k, long)
	}

	// The same pin with every observer attached: metrics, tracer, audit,
	// health, stats collection, progress, and checkpoints whose cadence
	// never comes due inside the run. The count runs from the first
	// iteration's event to the last one's, since the final checkpoint write
	// allocates by design. The observers only watch, so the factors must
	// match the bare run's bit for bit.
	watched := func(iters int) (uint64, *adatm.Result) {
		var first, last runtime.MemStats
		opt := adatm.Options{Rank: rank, MaxIters: iters, Tol: math.SmallestNonzeroFloat64, Seed: 3, Workers: 1,
			Metrics: adatm.NewMetrics(), Tracer: adatm.NewTracer(0),
			Audit:  adatm.NewAuditRecorder(adatm.AuditConfig{}),
			Health: adatm.NewHealthProbe(adatm.HealthConfig{}), CollectStats: true,
			Checkpoint: &adatm.CheckpointConfig{Dir: t.TempDir(), Every: 2*k + 1},
			Progress: func(s adatm.IterStats) bool {
				switch s.Iter {
				case 1:
					runtime.ReadMemStats(&first)
				case iters:
					runtime.ReadMemStats(&last)
				}
				return true
			}}
		res, err := adatm.DecomposeWith(x, eng, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != iters {
			t.Fatalf("observed run stopped after %d of %d iterations", res.Iters, iters)
		}
		return last.Mallocs - first.Mallocs, res
	}
	bare, err := adatm.DecomposeWith(x, eng, adatm.Options{Rank: rank, MaxIters: 2 * k, Tol: math.SmallestNonzeroFloat64, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	short, _ = watched(k)
	long, full := watched(2 * k)
	if short != 0 || long != 0 {
		t.Errorf("with every observer attached, %d iterations made %d allocations and %d made %d: the steady iteration allocates",
			k, short, 2*k, long)
	}
	for m := range bare.Factors {
		if bare.Factors[m].MaxAbsDiff(full.Factors[m]) != 0 {
			t.Errorf("factor %d differs with every observer attached", m)
		}
	}
}

// TestDecomposePermutedSteadyZeroAlloc is the same pin for the permuted
// path: DecomposePermuted builds its engine from the plan like the
// adaptive kind does, so it retains its intermediates too, and the k extra
// iterations of a 2k run allocate nothing. Each run selects and builds its
// own engine, and the sketches' hash sets may grow differently from run to
// run, so counting starts after the first iteration, once set-up is done.
func TestDecomposePermutedSteadyZeroAlloc(t *testing.T) {
	x := testTensor(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(iters int) uint64 {
		var before, after runtime.MemStats
		opt := adatm.Options{Rank: 8, MaxIters: iters, Tol: math.SmallestNonzeroFloat64, Seed: 3, Workers: 1,
			Progress: func(s adatm.IterStats) bool {
				if s.Iter == 1 {
					runtime.ReadMemStats(&before)
				}
				return true
			}}
		res, err := adatm.DecomposePermuted(x, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != iters {
			t.Fatalf("run stopped after %d of %d iterations", res.Iters, iters)
		}
		return after.Mallocs - before.Mallocs
	}
	const k = 5
	short, long := mallocs(k), mallocs(2*k)
	if short != long {
		t.Errorf("%d iterations made %d allocations, %d made %d: the steady iteration allocates",
			k, short, 2*k, long)
	}
}
