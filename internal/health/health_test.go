package health

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"adatm/internal/audit"
	"adatm/internal/dense"
	"adatm/internal/obs"
)

// identityGrams builds n well-conditioned (identity) R×R Gram matrices.
func identityGrams(n, r int) []*dense.Matrix {
	out := make([]*dense.Matrix, n)
	for m := range out {
		g := dense.New(r, r)
		for i := 0; i < r; i++ {
			g.Set(i, i, 1)
		}
		out[m] = g
	}
	return out
}

// congruentGrams builds Grams of unit columns with pairwise inner product c —
// the signature of near-collinear factor columns.
func congruentGrams(n, r int, c float64) []*dense.Matrix {
	out := make([]*dense.Matrix, n)
	for m := range out {
		g := dense.New(r, r)
		for i := 0; i < r; i++ {
			for j := 0; j < r; j++ {
				if i == j {
					g.Set(i, j, 1)
				} else {
					g.Set(i, j, c)
				}
			}
		}
		out[m] = g
	}
	return out
}

func healthyInput(iter int, grams []*dense.Matrix) Input {
	return Input{
		Iter: iter, Fit: 0.5 + 0.01*float64(iter), PrevFit: 0.5 + 0.01*float64(iter-1),
		Tol: 1e-9, Lambda: []float64{2, 1}, Grams: grams,
	}
}

func TestStateStringParseJSON(t *testing.T) {
	for _, s := range []State{Healthy, Stalled, SwampSuspect, IllConditioned} {
		name := s.String()
		back, ok := ParseState(name)
		if !ok || back != s {
			t.Errorf("ParseState(%q) = %v, %v", name, back, ok)
		}
		j, err := s.MarshalJSON()
		if err != nil || string(j) != `"`+name+`"` {
			t.Errorf("MarshalJSON(%v) = %s, %v", s, j, err)
		}
	}
	if _, ok := ParseState("bogus"); ok {
		t.Error("ParseState accepted an unknown name")
	}
	if got := State(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range State.String() = %q", got)
	}
}

func TestMachineDebounce(t *testing.T) {
	m := machine{}
	if st, ch := m.step(SwampSuspect); st != Healthy || ch {
		t.Fatalf("one raw observation transitioned: %v %v", st, ch)
	}
	if st, ch := m.step(SwampSuspect); st != SwampSuspect || !ch {
		t.Fatalf("second consecutive raw observation did not commit: %v %v", st, ch)
	}
	// A single flap back does not transition...
	if st, ch := m.step(Healthy); st != SwampSuspect || ch {
		t.Fatalf("single flap transitioned: %v %v", st, ch)
	}
	// ...and returning to the current state resets the candidate streak.
	if st, _ := m.step(SwampSuspect); st != SwampSuspect {
		t.Fatal("state lost after flap")
	}
	if st, ch := m.step(Healthy); st != SwampSuspect || ch {
		t.Fatalf("streak survived the reset: %v %v", st, ch)
	}
	if m.transitions != 1 {
		t.Errorf("transitions = %d, want 1", m.transitions)
	}
}

func TestLambdaRatio(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1}, 1},
		{[]float64{4, -2, 1}, 4},
		{[]float64{1, 0}, KappaCeil},
		{[]float64{5}, 1},
	}
	for _, c := range cases {
		if got := lambdaRatio(c.in); got != c.want {
			t.Errorf("lambdaRatio(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCongruence(t *testing.T) {
	g := dense.New(3, 3)
	g.Set(0, 0, 4)
	g.Set(1, 1, 1)
	g.Set(2, 2, 1)
	g.Set(0, 1, 1.0) // normalized: 1/(2·1) = 0.5
	g.Set(1, 0, 1.0)
	g.Set(1, 2, 0.9) // normalized: 0.9
	g.Set(2, 1, 0.9)
	if got := congruence(g); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("congruence = %v, want 0.9", got)
	}
	// Dead (zero-diagonal) columns are skipped, FP overshoot clamps to 1.
	g.Set(2, 2, 0)
	if got := congruence(g); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("congruence with dead column = %v, want 0.5", got)
	}
	g2 := dense.New(2, 2)
	g2.Set(0, 0, 1)
	g2.Set(1, 1, 1)
	g2.Set(0, 1, 1.0000000001)
	g2.Set(1, 0, 1.0000000001)
	if got := congruence(g2); got != 1 {
		t.Errorf("congruence overshoot = %v, want clamped 1", got)
	}
}

func TestObserveHealthyStaysHealthy(t *testing.T) {
	p := New(Config{})
	grams := identityGrams(3, 2)
	for i := 1; i <= 10; i++ {
		p.Observe(healthyInput(i, grams))
	}
	s := p.Summary()
	if s.State != Healthy || s.Transitions != 0 || s.Iters != 10 {
		t.Errorf("healthy run summary = %+v", s)
	}
	if s.StateIters["healthy"] != 10 {
		t.Errorf("StateIters = %v", s.StateIters)
	}
	if s.MaxKappa < 1 || s.MaxKappa > 2 {
		t.Errorf("identity system MaxKappa = %v, want ~1", s.MaxKappa)
	}
}

func TestObserveSwampDebounced(t *testing.T) {
	p := New(Config{})
	grams := congruentGrams(3, 2, 0.99) // congruence 0.99 >= 0.97
	in := healthyInput(1, grams)
	p.Observe(in)
	if p.State() != Healthy {
		t.Fatal("swamp verdict committed before the debounce window")
	}
	in.Iter = 2
	p.Observe(in)
	if p.State() != SwampSuspect {
		t.Fatalf("state = %v after 2 consecutive swamp observations, want swamp-suspect", p.State())
	}
	s := p.Summary()
	if s.Transitions != 1 || s.MaxCongruence < 0.97 {
		t.Errorf("summary = %+v", s)
	}
}

func TestObserveIllConditionedWinsPrecedence(t *testing.T) {
	// Grams that are simultaneously near-singular (huge Hadamard κ) and
	// highly congruent: the most severe verdict must win.
	p := New(Config{})
	grams := congruentGrams(3, 2, 0.999999999) // H off-diag ~1 → κ ≥ 1e8; congruence ≥ 0.97 too
	in := healthyInput(1, grams)
	p.Observe(in)
	in.Iter = 2
	p.Observe(in)
	if p.State() != IllConditioned {
		t.Fatalf("state = %v, want ill-conditioned to subsume the swamp signal", p.State())
	}
}

func TestObserveIllConditionedWithoutCongruence(t *testing.T) {
	// Wildly scaled orthogonal columns: zero congruence, huge κ.
	p := New(Config{})
	grams := identityGrams(3, 2)
	for _, g := range grams {
		g.Set(0, 0, 1e10)
		g.Set(1, 1, 1e-10)
	}
	in := healthyInput(1, grams)
	p.Observe(in)
	in.Iter = 2
	p.Observe(in)
	if p.State() != IllConditioned {
		t.Fatalf("state = %v, want ill-conditioned", p.State())
	}
	if s := p.Summary(); s.MaxCongruence != 0 {
		t.Errorf("diagonal grams produced congruence %v", s.MaxCongruence)
	}
}

func TestObserveStallDetection(t *testing.T) {
	p := New(Config{})
	grams := identityGrams(3, 2)
	fit := 0.1
	// Establish a healthy progress baseline: Δfit = 0.01 per iteration.
	for i := 1; i <= 8; i++ {
		prev := fit
		fit += 0.01
		p.Observe(Input{Iter: i, Fit: fit, PrevFit: prev, Tol: 1e-9,
			Lambda: []float64{1, 1}, Grams: grams})
	}
	if p.State() != Healthy {
		t.Fatalf("baseline phase state = %v", p.State())
	}
	// Progress collapses to 1e-5 — far below 2% of the 0.01 median, yet well
	// above Tol, so this is a stall rather than convergence.
	for i := 9; i <= 10; i++ {
		prev := fit
		fit += 1e-5
		p.Observe(Input{Iter: i, Fit: fit, PrevFit: prev, Tol: 1e-9,
			Lambda: []float64{1, 1}, Grams: grams})
	}
	if p.State() != Stalled {
		t.Fatalf("state = %v after collapsed progress, want stalled", p.State())
	}
}

func TestObserveStallSuppressedNearConvergence(t *testing.T) {
	// The same collapsed deltas with Tol above them mean the run is simply
	// converging; the stall rule must stay quiet.
	p := New(Config{})
	grams := identityGrams(3, 2)
	fit := 0.1
	for i := 1; i <= 8; i++ {
		prev := fit
		fit += 0.01
		p.Observe(Input{Iter: i, Fit: fit, PrevFit: prev, Tol: 1e-4,
			Lambda: []float64{1, 1}, Grams: grams})
	}
	for i := 9; i <= 12; i++ {
		prev := fit
		fit += 1e-5
		p.Observe(Input{Iter: i, Fit: fit, PrevFit: prev, Tol: 1e-4,
			Lambda: []float64{1, 1}, Grams: grams})
	}
	if p.State() != Healthy {
		t.Fatalf("state = %v for a converging run, want healthy", p.State())
	}
}

func TestObserveNilAndEmptySafe(t *testing.T) {
	var p *Probe
	p.Observe(healthyInput(1, identityGrams(3, 2)))
	if p.State() != Healthy {
		t.Error("nil probe state not healthy")
	}
	if s := p.Summary(); s.Iters != 0 {
		t.Errorf("nil probe summary = %+v", s)
	}
	q := New(Config{})
	q.Observe(Input{Iter: 1}) // no grams, no lambda: ignored
	if q.Summary().Iters != 0 {
		t.Error("degenerate input counted as an observation")
	}
}

func TestObserveSinksFanOut(t *testing.T) {
	reg := obs.NewRegistry()
	var ledger bytes.Buffer
	log := obs.NewIterLog(8)
	p := New(Config{
		Run:     "fixture/coo",
		Metrics: reg,
		Audit:   audit.NewRecorder(audit.Config{Ledger: &ledger}),
		Log:     log,
	})
	grams := congruentGrams(3, 2, 0.99)
	in := healthyInput(1, grams)
	p.Observe(in)
	in.Iter = 2
	p.Observe(in)

	// Metrics sink.
	snap := reg.Snapshot()
	if got := snap["adatm_health_state"]; got != float64(SwampSuspect) {
		t.Errorf("adatm_health_state = %v, want %v", got, float64(SwampSuspect))
	}
	if got := snap["adatm_health_max_congruence"]; got < 0.97 {
		t.Errorf("adatm_health_max_congruence = %v", got)
	}
	if got := snap["adatm_health_transitions_total"]; got != 1 {
		t.Errorf("adatm_health_transitions_total = %v, want 1", got)
	}
	if got := snap["adatm_cpd_fit_delta_count"]; got != 2 {
		t.Errorf("adatm_cpd_fit_delta_count = %v, want 2", got)
	}

	// Ledger sink: start event + transition event, both valid JSONL.
	text := ledger.String()
	if !strings.Contains(text, "health.state") || !strings.Contains(text, "swamp-suspect") {
		t.Errorf("ledger missing health.state transition:\n%s", text)
	}
	if n, err := audit.ValidateLedger(bytes.NewReader(ledger.Bytes())); err != nil || n != 2 {
		t.Errorf("ledger validation: n=%d err=%v", n, err)
	}

	// Iteration-stream sink.
	samples := log.Snapshot()
	if len(samples) != 2 {
		t.Fatalf("iterlog has %d samples, want 2", len(samples))
	}
	last := samples[1]
	if last.Run != "fixture/coo" || last.Iter != 2 || last.State != SwampSuspect.String() {
		t.Errorf("iterlog last sample = %+v", last)
	}
	if len(last.Kappa) != 3 || last.MaxCongruence < 0.97 {
		t.Errorf("iterlog sample signals = %+v", last)
	}
}

// The probe must be allocation-free in steady state even with every sink
// wired: the solver pins its iteration loop at zero allocations and the probe
// rides inside it.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	log := obs.NewIterLog(16)
	p := New(Config{
		Run:     "zeroalloc",
		Metrics: reg,
		Audit:   audit.NewRecorder(audit.Config{Ledger: &bytes.Buffer{}}),
		Log:     log,
	})
	grams := identityGrams(3, 4)
	in := healthyInput(3, identityGrams(3, 4))
	in.Grams = grams
	// Warm: sizes scratch, registers nothing (registration happened in New),
	// emits the one-time monitoring-started ledger event.
	p.Observe(in)
	p.Observe(in)
	allocs := testing.AllocsPerRun(100, func() {
		p.Observe(in)
	})
	if allocs != 0 {
		t.Errorf("steady-state Observe: %v allocs, want 0", allocs)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{State: SwampSuspect, Iters: 7, Transitions: 1, MaxKappa: 123, MaxCongruence: 0.99}
	out := s.String()
	for _, want := range []string{"health=swamp-suspect", "iters=7", "transitions=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Summary.String() = %q, missing %q", out, want)
		}
	}
}

func TestFitDeltaBuckets(t *testing.T) {
	b := FitDeltaBuckets()
	if len(b) != 41 || b[0] != math.Ldexp(1, -40) || b[40] != 1 {
		t.Fatalf("bounds = [%v .. %v], len %d", b[0], b[len(b)-1], len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Fatalf("bounds not log2-spaced at %d", i)
		}
	}
}
