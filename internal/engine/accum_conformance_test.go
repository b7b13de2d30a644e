// Scatter-vs-privatize agreement suite: both output-accumulation backends
// must compute the same MTTKRP on every engine that supports them, under
// deliberately high output contention (a tiny mode shared by many nonzeros).
// scripts/ci.sh runs this file under -race, so the privatized reduction and
// the striped scatter are both exercised with the race detector watching.
package engine_test

import (
	"testing"

	"adatm/internal/accum"
	"adatm/internal/coo"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/hicoo"
	"adatm/internal/memo"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

// pinned is the accumulation policy that pins each of n modes to s.
func pinned(s accum.Strategy, n, workers int) accum.Config {
	per := make([]accum.Strategy, n)
	for m := range per {
		per[m] = s
	}
	return accum.Config{PerMode: per, Workers: workers}
}

// accumEngines builds every accum-aware engine with every mode pinned to s.
func accumEngines(t testing.TB, x *tensor.COO, workers int, s accum.Strategy) map[string]engine.Engine {
	t.Helper()
	cfg := pinned(s, x.Order(), workers)
	out := map[string]engine.Engine{
		"coo":   coo.NewWithAccum(x, workers, cfg),
		"hicoo": hicoo.NewWithAccum(x, workers, cfg),
	}
	n := x.Order()
	for name, strat := range map[string]*memo.Strategy{
		"memo-flat":     memo.Flat(n),
		"memo-balanced": memo.Balanced(n),
	} {
		e, err := memo.NewWithConfig(x, strat, memo.Config{Workers: workers, Name: name, Accum: cfg})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = e
	}
	return out
}

// shortModeTensor builds a high-contention workload: mode 0 has only a few
// rows, so every worker's scatter stream hammers the same output lines.
func shortModeTensor(t testing.TB) *tensor.COO {
	t.Helper()
	nnz := 20000
	if testing.Short() {
		nnz = 4000
	}
	return tensor.Generate(tensor.GenSpec{
		Name: "short-mode",
		Dims: []int{8, 256, 256},
		NNZ:  nnz,
		Skew: []float64{0, 0.8, 0.8},
		Seed: 211,
	})
}

// Contract 7: the scatter and privatize backends agree with the reference
// (and hence with each other) on every engine, every mode, and multiple
// worker widths, on a short-mode high-contention tensor.
func TestConformanceAccumAgreement(t *testing.T) {
	x := shortModeTensor(t)
	const r = 16
	fs := factors(x, r, 223)
	want := make([]*dense.Matrix, x.Order())
	for mode := range want {
		want[mode] = ref.MTTKRPSparse(x, mode, fs)
	}
	for _, workers := range []int{1, 4} {
		for _, s := range []accum.Strategy{accum.Scatter, accum.Privatize} {
			for name, e := range accumEngines(t, x, workers, s) {
				for mode := 0; mode < x.Order(); mode++ {
					out := dense.New(x.Dims[mode], r)
					out.Fill(777) // stale garbage must be overwritten by both paths
					if err := e.MTTKRP(mode, fs, out); err != nil {
						t.Fatalf("%s %s workers=%d mode %d: %v", name, s, workers, mode, err)
					}
					if d := out.MaxAbsDiff(want[mode]); d > 1e-8 {
						t.Errorf("%s %s workers=%d mode %d: diff %g", name, s, workers, mode, d)
					}
				}
			}
		}
	}
}

// Contract 7b: repeated privatized MTTKRPs are stable — the pool's epoch
// reuse never leaks a previous call's partials into the next result. The
// tolerance admits reassociation only: engines with dynamic chunk dealing
// (hicoo) distribute nonzeros across private copies differently per run, so
// the per-row sums reassociate; anything beyond ~1e-9 on O(1)-magnitude
// values would mean a partial actually leaked.
func TestConformanceAccumPrivatizeRepeatable(t *testing.T) {
	x := shortModeTensor(t)
	const r = 8
	fs := factors(x, r, 227)
	for name, e := range accumEngines(t, x, 4, accum.Privatize) {
		a := dense.New(x.Dims[0], r)
		b := dense.New(x.Dims[0], r)
		e.MTTKRP(0, fs, a)
		e.MTTKRP(0, fs, b)
		if d := a.MaxAbsDiff(b); d > 1e-9 {
			t.Errorf("%s: repeated privatized MTTKRP differs by %g", name, d)
		}
	}
}

// Contract 7c: interleaving strategies on the *same* engine instance (the
// Auto resolver may pick differently per mode) never corrupts shared state:
// a privatized call followed by a scatter call on another mode still matches
// the reference.
func TestConformanceAccumPerModeMix(t *testing.T) {
	x := shortModeTensor(t)
	const r = 8
	fs := factors(x, r, 229)
	per := []accum.Strategy{accum.Privatize, accum.Scatter, accum.Privatize}
	cfg := accum.Config{PerMode: per, Workers: 4}
	engines := map[string]engine.Engine{
		"coo":   coo.NewWithAccum(x, 4, cfg),
		"hicoo": hicoo.NewWithAccum(x, 4, cfg),
	}
	if e, err := memo.NewWithConfig(x, memo.Flat(x.Order()), memo.Config{Workers: 4, Name: "memo-flat", Accum: cfg}); err != nil {
		t.Fatal(err)
	} else {
		engines["memo-flat"] = e
	}
	for name, e := range engines {
		for mode := 0; mode < x.Order(); mode++ {
			out := dense.New(x.Dims[mode], r)
			if err := e.MTTKRP(mode, fs, out); err != nil {
				t.Fatalf("%s mode %d: %v", name, mode, err)
			}
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Errorf("%s mode %d (%s): diff %g", name, mode, per[mode], d)
			}
		}
	}
}

// Contract 7d: with an empty-output mode (a row range no nonzero touches),
// the privatized reduction still zeroes untouched rows. Uses a hand-built
// tensor whose mode-0 support skips rows.
func TestConformanceAccumPrivatizeEmptyRows(t *testing.T) {
	x := tensor.NewCOO([]int{6, 4, 4}, 2)
	x.Append([]tensor.Index{1, 2, 3}, 1.5)
	x.Append([]tensor.Index{4, 0, 2}, -2.0)
	fs := factors(x, 3, 233)
	for name, e := range accumEngines(t, x, 2, accum.Privatize) {
		out := dense.New(6, 3)
		out.Fill(777)
		if err := e.MTTKRP(0, fs, out); err != nil {
			t.Fatal(err)
		}
		for _, row := range []int{0, 2, 3, 5} {
			for j := 0; j < 3; j++ {
				if out.At(row, j) != 0 {
					t.Errorf("%s: empty row %d not zeroed: %v", name, row, out.Row(row))
				}
			}
		}
	}
}
