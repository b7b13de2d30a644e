package model

import (
	"strings"
	"testing"

	"adatm/internal/accum"
	"adatm/internal/tensor"
)

// shortModePlan selects a plan over a tensor whose first mode is tiny (fewer
// rows than workers): the one regime where the lock-free leaf scatter cannot
// use the full parallel width, so the model must privatize it.
func shortModePlan(t *testing.T, opt Options) *Plan {
	t.Helper()
	x := tensor.Generate(tensor.GenSpec{
		Name: "short-mode",
		Dims: []int{4, 1024, 1024},
		NNZ:  50000,
		Skew: []float64{0, 0.8, 0.8},
		Seed: 241,
	})
	plan := Select(x, opt)
	if len(plan.Accum) != x.Order() {
		t.Fatalf("plan has %d accum choices, want %d", len(plan.Accum), x.Order())
	}
	return plan
}

// The model's accum crossover: a 4-row mode at 8 workers caps the lock-free
// scatter at width 4, so privatization's full-width streaming wins; the
// 1024-row modes scatter at full width and keep the lock-free baseline.
func TestPlanAccumCrossover(t *testing.T) {
	plan := shortModePlan(t, Options{Rank: 16, Workers: 8})
	if got := plan.Accum[0].Strategy; got != accum.Privatize {
		t.Errorf("short mode (4 rows, 8 workers): chose %s, want privatize\n%s", got, plan)
	}
	for _, mode := range []int{1, 2} {
		if got := plan.Accum[mode].Strategy; got != accum.Scatter {
			t.Errorf("wide mode %d (1024 rows): chose %s, want scatter", mode, got)
		}
	}
	for _, a := range plan.Accum {
		if !a.Feasible {
			t.Errorf("mode %d: privatization infeasible with no budget set", a.Mode)
		}
		if a.FootprintBytes <= 0 {
			t.Errorf("mode %d: non-positive footprint %d", a.Mode, a.FootprintBytes)
		}
	}
}

// A budget the chosen format has already spent leaves no headroom for
// privatized copies: every mode must fall back to scatter and record the
// infeasibility as evidence.
func TestPlanAccumBudgetForcesScatter(t *testing.T) {
	plan := shortModePlan(t, Options{Rank: 16, Workers: 8, Budget: 1})
	for _, a := range plan.Accum {
		if a.Strategy != accum.Scatter {
			t.Errorf("mode %d: chose %s under a spent budget, want scatter", a.Mode, a.Strategy)
		}
		if a.Feasible {
			t.Errorf("mode %d: privatization marked feasible under a spent budget", a.Mode)
		}
	}
}

// The per-mode table the engine receives is the plan's, and the plan keeps
// the cost evidence for the audit ledger.
func TestPlanAccumOverride(t *testing.T) {
	plan := shortModePlan(t, Options{Rank: 16, Workers: 8})
	for _, a := range plan.Accum {
		if a.ScatterNS <= 0 || a.PrivatizeNS <= 0 {
			t.Errorf("mode %d: plan dropped the cost evidence", a.Mode)
		}
	}
	per := plan.AccumPerMode()
	if len(per) != len(plan.Accum) {
		t.Fatalf("AccumPerMode len %d, want %d", len(per), len(plan.Accum))
	}
	for m, s := range per {
		if s != plan.Accum[m].Strategy {
			t.Errorf("AccumPerMode[%d] = %s, plan says %s", m, s, plan.Accum[m].Strategy)
		}
	}
}

// The rendered plan must surface the accumulation table (the /plan endpoint
// and cpd -plan show this text).
func TestPlanStringShowsAccum(t *testing.T) {
	plan := shortModePlan(t, Options{Rank: 16, Workers: 8})
	s := plan.String()
	if !strings.Contains(s, "accum") {
		t.Fatalf("plan report has no accum section:\n%s", s)
	}
	if !strings.Contains(s, "privatize") || !strings.Contains(s, "scatter") {
		t.Errorf("plan report accum table missing strategies:\n%s", s)
	}
}
