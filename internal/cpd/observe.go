package cpd

import (
	"runtime"
	"time"

	"adatm/internal/audit"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/health"
	"adatm/internal/obs"
	"adatm/internal/tensor"
)

// iterEvent is the loop state after one completed iteration: everything an
// observer may read. The slices are the loop's own buffers, valid only
// during the call; an observer that keeps state copies it.
type iterEvent struct {
	iter       int
	fit        float64
	prevFit    float64 // −Inf on a fresh run's first iteration
	tol        float64
	lambda     []float64
	grams      []*dense.Matrix
	factors    []*dense.Matrix
	fitTrace   []float64     // Result.FitTrace so far (nil without TrackFit)
	elapsed    time.Duration // since the loop started
	mttkrpTime time.Duration // cumulative
}

// exit is why a run ended, as its observers see it.
type exit int

const (
	// exitDone: converged, reached MaxIters, or stopped by Progress.
	exitDone exit = iota
	// exitCancelled: Ctx was cancelled between mode sub-iterations.
	exitCancelled
	// exitFailed: non-finite numerics, or an observer failed (a checkpoint
	// write). The newest state is not trustworthy or not wanted.
	exitFailed
)

// observer watches a run from outside the loop. iteration sees every
// completed iteration; returning stop ends the run early (Result.Stopped)
// unless the iteration converged, and an error aborts it. end sees the
// sealed Result once, on every exit that returns one (an engine or
// exchange error returns none, and ends no observer).
type observer interface {
	iteration(ev iterEvent) (stop bool, err error)
	end(res *Result, why exit) error
}

// newObservers assembles the observer list from opt. Iterations go to the
// list in order and the end goes in reverse, as deferred calls run, so the
// steady-allocation read follows every observer that sizes buffers in the
// first iteration and precedes, at the end, the audit reconcile and the
// final checkpoint write, which both allocate. Progress, the caller's
// callback, comes after it: that read stops the world, and restarting the
// world may start an OS thread, whose runtime structures are heap
// allocations. Ahead of Progress, that happens before anything a Progress
// callback measures from the first iteration on (alloc_test.go's
// zero-allocation pin does). first is the run's first iteration (past 1 on
// Resume); rs is Result.Stats.
func newObservers(x *tensor.COO, eng engine.Engine, opt Options, rs *RunStats, first int, sweep []int) ([]observer, error) {
	var list []observer
	if opt.Metrics != nil {
		list = append(list, iterMetrics{
			iters: opt.Metrics.Counter("adatm_cpd_iterations_total", "Completed ALS iterations.", nil),
			fit:   opt.Metrics.Gauge("adatm_cpd_fit", "Model fit after the latest iteration.", nil),
		})
	}
	if opt.Health != nil {
		list = append(list, healthProbe{opt.Health})
	}
	if opt.Checkpoint != nil {
		cw, err := newCheckpointer(x, opt, sweep, first-1)
		if err != nil {
			return nil, err
		}
		list = append(list, cw)
	}
	if opt.Audit != nil {
		list = append(list, &auditReconcile{rec: opt.Audit, eng: eng, base: eng.Stats(), first: first})
	}
	if rs != nil {
		list = append(list, &collectStats{rs: rs, eng: eng, first: first})
	}
	if opt.Progress != nil {
		list = append(list, progress(opt.Progress))
	}
	return list, nil
}

// iterMetrics publishes the run-level series after every iteration.
type iterMetrics struct {
	iters *obs.Counter
	fit   *obs.Gauge
}

func (m iterMetrics) iteration(ev iterEvent) (bool, error) {
	m.iters.Inc()
	m.fit.Set(ev.fit)
	return false, nil
}

func (iterMetrics) end(*Result, exit) error { return nil }

// healthProbe feeds Options.Health.
type healthProbe struct{ *health.Probe }

func (h healthProbe) iteration(ev iterEvent) (bool, error) {
	h.Observe(health.Input{
		Iter: ev.iter, Fit: ev.fit, PrevFit: ev.prevFit, Tol: ev.tol,
		Lambda: ev.lambda, Grams: ev.grams,
	})
	return false, nil
}

func (healthProbe) end(*Result, exit) error { return nil }

// progress is Options.Progress.
type progress func(IterStats) bool

func (f progress) iteration(ev iterEvent) (bool, error) {
	return !f(IterStats{
		Iter:       ev.iter,
		Fit:        ev.fit,
		FitDelta:   ev.fit - ev.prevFit,
		Elapsed:    ev.elapsed,
		MTTKRPTime: ev.mttkrpTime,
	}), nil
}

func (progress) end(*Result, exit) error { return nil }

// auditReconcile reconciles the cost model's decision against this run's
// engine-counter deltas at run end; base is taken before the first
// iteration, so an engine reused across runs still yields this run's
// deltas, and they are averaged over this run's iterations, from first.
type auditReconcile struct {
	rec   *audit.Recorder
	eng   engine.Engine
	base  engine.Stats
	first int
}

func (*auditReconcile) iteration(iterEvent) (bool, error) { return false, nil }

func (a *auditReconcile) end(res *Result, _ exit) error {
	if n := res.Iters - a.first + 1; n > 0 {
		a.rec.Reconcile(measuredFrom(a.eng.Stats(), a.base, res, n))
	}
	return nil
}

// collectStats completes the CollectStats breakdown: the symbolic phase copied
// from the engine, and the allocation counters from the end of the run's
// first iteration (which warms scratch buffers) to its end.
type collectStats struct {
	rs    *RunStats
	eng   engine.Engine
	first int
	base  runtime.MemStats
}

func (s *collectStats) iteration(ev iterEvent) (bool, error) {
	if ev.iter == s.first {
		runtime.ReadMemStats(&s.base)
	}
	return false, nil
}

func (s *collectStats) end(res *Result, _ exit) error {
	s.rs.Phases[PhaseSymbolic].Time = time.Duration(s.eng.Stats().SymbolicNS)
	s.rs.Phases[PhaseSymbolic].Count = 1
	if res.Iters > s.first {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.rs.SteadyAllocs = int64(ms.Mallocs - s.base.Mallocs)
		s.rs.SteadyAllocBytes = int64(ms.TotalAlloc - s.base.TotalAlloc)
		s.rs.SteadyIters = int64(res.Iters - s.first)
	}
	return nil
}
