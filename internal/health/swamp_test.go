package health_test

import (
	"bytes"
	"runtime/debug"
	"strings"
	"testing"

	"adatm/internal/audit"
	"adatm/internal/coo"
	"adatm/internal/cpd"
	"adatm/internal/dense"
	"adatm/internal/health"
	"adatm/internal/obs"
	"adatm/internal/tensor"
)

// swampFixture builds the deterministic degenerate fixture: a dense rank-3
// order-3 tensor whose first two components are near-collinear in every mode
// (the canonical CP swamp configuration), plus the matching factor matrices
// to initialize ALS right on the degenerate ridge.
func swampFixture() (*tensor.COO, []*dense.Matrix) {
	const dim, rank = 8, 3
	eps := 0.02
	factors := make([]*dense.Matrix, 3)
	for m := range factors {
		f := dense.New(dim, rank)
		for i := 0; i < dim; i++ {
			base := 1 + 0.3*float64((i+m)%dim)
			pert := float64(i%3) - 1 // -1, 0, 1 pattern
			f.Set(i, 0, base)
			f.Set(i, 1, base+eps*pert) // component 2 ≈ component 1
			f.Set(i, 2, 1+0.7*float64((dim-1-i+m)%dim))
		}
		factors[m] = f
	}
	x := tensor.NewCOO([]int{dim, dim, dim}, dim*dim*dim)
	idx := make([]tensor.Index, 3)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			for k := 0; k < dim; k++ {
				v := 0.0
				for r := 0; r < rank; r++ {
					v += factors[0].At(i, r) * factors[1].At(j, r) * factors[2].At(k, r)
				}
				idx[0], idx[1], idx[2] = tensor.Index(i), tensor.Index(j), tensor.Index(k)
				x.Append(idx, v)
			}
		}
	}
	return x, factors
}

// The swamp fixture must be flagged swamp-suspect within 5 iterations, and
// the verdict must be visible in all three sinks: the audit ledger, the
// adatm_health_* metrics, and the /iters iteration stream.
func TestSwampFixtureDetectedInAllSinks(t *testing.T) {
	x, init := swampFixture()
	reg := obs.NewRegistry()
	var ledger bytes.Buffer
	log := obs.NewIterLog(32)
	probe := health.New(health.Config{
		Run:     "swamp-fixture",
		Metrics: reg,
		Audit:   audit.NewRecorder(audit.Config{Ledger: &ledger}),
		Log:     log,
	})
	res, err := cpd.Run(x, coo.New(x, 1), cpd.Options{
		Rank: 3, MaxIters: 5, Tol: 1e-12, Init: init, Health: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters > 5 {
		t.Fatalf("fixture ran %d iterations, cap is 5", res.Iters)
	}

	if st := probe.State(); st != health.SwampSuspect {
		t.Fatalf("verdict = %v within %d iterations, want swamp-suspect (summary %+v)",
			st, res.Iters, probe.Summary())
	}
	sum := probe.Summary()
	if sum.MaxCongruence < 0.97 {
		t.Errorf("MaxCongruence = %v, want >= 0.97", sum.MaxCongruence)
	}

	// Sink 1: audit ledger carries a valid health.state transition event.
	text := ledger.String()
	if !strings.Contains(text, `"health.state"`) || !strings.Contains(text, "swamp-suspect") {
		t.Errorf("ledger missing swamp-suspect health.state event:\n%s", text)
	}
	if _, err := audit.ValidateLedger(bytes.NewReader(ledger.Bytes())); err != nil {
		t.Errorf("ledger invalid: %v", err)
	}

	// Sink 2: metrics gauge reports the swamp verdict.
	snap := reg.Snapshot()
	if got := snap["adatm_health_state"]; got != float64(health.SwampSuspect) {
		t.Errorf("adatm_health_state = %v, want %v", got, float64(health.SwampSuspect))
	}
	if snap["adatm_cpd_fit_delta_count"] == 0 {
		t.Error("adatm_cpd_fit_delta histogram saw no observations")
	}

	// Sink 3: the iteration stream's newest sample carries the verdict.
	samples := log.Snapshot()
	if len(samples) != res.Iters {
		t.Fatalf("iterlog has %d samples for %d iterations", len(samples), res.Iters)
	}
	last := samples[len(samples)-1]
	if last.State != "swamp-suspect" || last.Run != "swamp-fixture" {
		t.Errorf("iterlog last sample = %+v, want swamp-suspect", last)
	}
	if last.MaxCongruence < 0.97 {
		t.Errorf("iterlog sample MaxCongruence = %v", last.MaxCongruence)
	}
}

// The quickstart-style fixture (well-separated random CP signal) must sail
// through with a clean bill: no transitions, healthy end state.
func TestQuickstartFixtureStaysHealthy(t *testing.T) {
	x := tensor.Generate(tensor.GenSpec{
		Name: "quickstart", Dims: []int{30, 40, 25}, NNZ: 5000, Rank: 4, Noise: 0.1, Seed: 7,
	})
	log := obs.NewIterLog(64)
	probe := health.New(health.Config{Run: "quickstart", Log: log})
	res, err := cpd.Run(x, coo.New(x, 1), cpd.Options{
		Rank: 4, MaxIters: 15, Tol: 1e-6, Seed: 1, Health: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := probe.Summary()
	if sum.State != health.Healthy || sum.Transitions != 0 {
		t.Fatalf("quickstart fixture verdict = %+v, want healthy with 0 transitions", sum)
	}
	if sum.Iters != res.Iters {
		t.Errorf("probe observed %d iterations, run did %d", sum.Iters, res.Iters)
	}
	for _, s := range log.Snapshot() {
		if s.State != "healthy" {
			t.Errorf("iteration %d streamed state %q, want healthy", s.Iter, s.State)
		}
	}
}

// The solver's steady-state allocation counter must not move when the probe
// is enabled with every sink wired: the probe warms its scratch during
// iteration 1 (outside the steady window) and allocates nothing after.
func TestProbeKeepsSolverSteadyStateZeroAlloc(t *testing.T) {
	x := tensor.Generate(tensor.GenSpec{
		Name: "alloc-pin", Dims: []int{30, 40, 25}, NNZ: 5000, Rank: 4, Noise: 0.1, Seed: 7,
	})
	// Measure with the collector off: a GC cycle overlapping a steady window
	// makes the runtime allocate (mark-worker goroutines, new threads),
	// which the process-wide Mallocs counter would charge to that run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base, err := cpd.Run(x, coo.New(x, 1), cpd.Options{
		Rank: 4, MaxIters: 8, Tol: 1e-15, Seed: 5, Workers: 1, CollectStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ledger bytes.Buffer
	probe := health.New(health.Config{
		Run:     "alloc-pin",
		Metrics: obs.NewRegistry(),
		Audit:   audit.NewRecorder(audit.Config{Ledger: &ledger}),
		Log:     obs.NewIterLog(16),
	})
	probed, err := cpd.Run(x, coo.New(x, 1), cpd.Options{
		Rank: 4, MaxIters: 8, Tol: 1e-15, Seed: 5, Workers: 1, CollectStats: true,
		Health: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if probe.State() != health.Healthy {
		t.Fatalf("alloc-pin fixture not healthy: %+v", probe.Summary())
	}
	if got, want := probed.Stats.SteadyAllocs, base.Stats.SteadyAllocs; got > want {
		t.Errorf("probe added steady-state allocations: %d with probe, %d without", got, want)
	}
}

// The probe must not perturb the trajectory: a probed run and a bare run
// produce bit-identical results.
func TestProbeDoesNotPerturbRun(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 800, 0.6, 17)
	opt := cpd.Options{Rank: 4, MaxIters: 8, Tol: 1e-12, Seed: 5}
	base, err := cpd.Run(x, coo.New(x, 1), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Health = health.New(health.Config{})
	probed, err := cpd.Run(x, coo.New(x, 1), opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Fit != probed.Fit || base.Iters != probed.Iters {
		t.Fatalf("probed run diverged: fit %v vs %v, iters %d vs %d",
			base.Fit, probed.Fit, base.Iters, probed.Iters)
	}
	for m := range base.Factors {
		if base.Factors[m].MaxAbsDiff(probed.Factors[m]) != 0 {
			t.Errorf("factor %d differs under the probe", m)
		}
	}
}
