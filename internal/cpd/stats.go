package cpd

import (
	"encoding/json"
	"fmt"
	"time"

	"adatm/internal/obs"
)

// Phase identifies one stage of the CP-ALS loop in the per-phase run
// breakdown.
type Phase int

const (
	// PhaseSymbolic is the engine's one-time symbolic/structure build. It
	// happens at engine construction, outside Run's wall clock; the time is
	// copied from the engine's counters so reports can show the full cost.
	PhaseSymbolic Phase = iota
	// PhaseMTTKRP covers the sparse MTTKRP kernel calls.
	PhaseMTTKRP
	// PhaseGram covers Gram precomputation, the per-mode Hadamard of Gram
	// matrices, and the post-solve Gram refresh.
	PhaseGram
	// PhaseSolve covers the least-squares (or multiplicative-update) factor
	// solve, including the copy of the MTTKRP output into the factor.
	PhaseSolve
	// PhaseNormalize covers column normalization of the updated factor.
	PhaseNormalize
	// PhaseFit covers the fast-fit evaluation (and the one-time ‖X‖).
	PhaseFit
	// NumPhases is the number of phases (array length, not a phase).
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseSymbolic:  "symbolic",
	PhaseMTTKRP:    "mttkrp",
	PhaseGram:      "gram",
	PhaseSolve:     "solve",
	PhaseNormalize: "normalize",
	PhaseFit:       "fit",
}

// String returns the phase's report name — the single canonical name source
// shared by the -json report, span names, and metric labels.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// ParsePhase resolves a report name back to its Phase.
func ParsePhase(s string) (Phase, error) {
	for p := Phase(0); p < NumPhases; p++ {
		if phaseNames[p] == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cpd: unknown phase %q", s)
}

// MarshalJSON renders the phase as its canonical name, so JSON reports never
// leak the enum's integer values.
func (p Phase) MarshalJSON() ([]byte, error) {
	if p < 0 || p >= NumPhases {
		return nil, fmt.Errorf("cpd: cannot marshal out-of-range phase %d", int(p))
	}
	return json.Marshal(p.String())
}

// UnmarshalJSON parses a canonical phase name.
func (p *Phase) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParsePhase(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// PhaseStats accumulates one phase's cost over a run.
type PhaseStats struct {
	Time  time.Duration `json:"time_ns"`
	Count int64         `json:"count"`
	// Ops is the Hadamard op-unit count (MTTKRP phases only; 0 elsewhere).
	Ops int64 `json:"ops,omitempty"`
}

// RunStats is the structured per-phase breakdown of one decomposition run,
// attached to Result when Options.CollectStats is set.
type RunStats struct {
	Phases [NumPhases]PhaseStats
	// ModeMTTKRP splits the MTTKRP phase per tensor mode.
	ModeMTTKRP []PhaseStats
	// Steady-state allocation behaviour, measured from iteration 2 onward
	// (iteration 1 warms caches and scratch buffers).
	SteadyAllocs     int64
	SteadyAllocBytes int64
	SteadyIters      int64
}

// PhaseTimeSum returns the summed time of the iteration phases — everything
// except PhaseSymbolic, which is engine-construction work outside Run's
// wall clock. It accounts for (nearly) all of Result.TotalTime.
func (rs *RunStats) PhaseTimeSum() time.Duration {
	var sum time.Duration
	for p := Phase(0); p < NumPhases; p++ {
		if p == PhaseSymbolic {
			continue
		}
		sum += rs.Phases[p].Time
	}
	return sum
}

// MarshalJSON renders the phase array as a name-keyed object so reports
// stay readable without the Phase enum.
func (rs *RunStats) MarshalJSON() ([]byte, error) {
	phases := make(map[string]PhaseStats, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		phases[p.String()] = rs.Phases[p]
	}
	return json.Marshal(struct {
		Phases           map[string]PhaseStats `json:"phases"`
		ModeMTTKRP       []PhaseStats          `json:"mode_mttkrp"`
		SteadyAllocs     int64                 `json:"steady_allocs"`
		SteadyAllocBytes int64                 `json:"steady_alloc_bytes"`
		SteadyIters      int64                 `json:"steady_iters"`
	}{phases, rs.ModeMTTKRP, rs.SteadyAllocs, rs.SteadyAllocBytes, rs.SteadyIters})
}

// IterStats is the per-iteration progress snapshot handed to
// Options.Progress.
type IterStats struct {
	Iter       int           // 1-based iteration number just completed
	Fit        float64       // fit after this iteration
	FitDelta   float64       // fit − previous fit (+Inf after iteration 1)
	Elapsed    time.Duration // wall time since the iteration loop started
	MTTKRPTime time.Duration // cumulative MTTKRP time so far
}

// phaseClock attributes wall time to phases and fans each interval out to
// every enabled instrumentation sink: the RunStats breakdown (CollectStats),
// the span tracer (Chrome trace export), and the per-phase latency
// histograms of a metrics registry. Any subset may be nil. A nil clock is
// valid and makes every method a no-op, so the uninstrumented path costs one
// pointer test per phase boundary and performs no time syscalls beyond the
// coarse MTTKRP/total stopwatches that were always there.
type phaseClock struct {
	rs        *RunStats // nil unless Options.CollectStats
	tr        *obs.Tracer
	hist      [NumPhases]*obs.Histogram
	modeNames []string // tracer span names, one per mode ("mttkrp/mode<k>")
	mark      time.Time
}

// newPhaseClock builds the clock for the enabled sinks; returns nil when no
// instrumentation is requested so the fast path stays a nil check.
func newPhaseClock(rs *RunStats, tr *obs.Tracer, reg *obs.Registry, nModes int) *phaseClock {
	if rs == nil && tr == nil && reg == nil {
		return nil
	}
	c := &phaseClock{rs: rs, tr: tr}
	if tr != nil {
		c.modeNames = make([]string, nModes)
		for m := range c.modeNames {
			c.modeNames[m] = fmt.Sprintf("mttkrp/mode%d", m)
		}
	}
	if reg != nil {
		for p := Phase(0); p < NumPhases; p++ {
			if p == PhaseSymbolic {
				continue // engine-construction work, outside Run's clock
			}
			c.hist[p] = reg.Histogram("adatm_cpd_phase_seconds",
				"CP-ALS phase latency.", obs.Labels{"phase": p.String()}, nil)
		}
	}
	return c
}

// start begins a measurement interval.
func (c *phaseClock) start() {
	if c != nil {
		c.mark = time.Now()
	}
}

// tick charges the time since the previous start/tick to the phase and
// starts the next interval.
func (c *phaseClock) tick(p Phase) {
	if c == nil {
		return
	}
	now := time.Now()
	d := now.Sub(c.mark)
	if c.rs != nil {
		c.rs.Phases[p].Time += d
		c.rs.Phases[p].Count++
	}
	c.hist[p].Observe(d.Seconds())
	if c.tr != nil {
		end := c.tr.Now()
		c.tr.EmitRange(phaseNames[p], 0, end-d.Nanoseconds(), d.Nanoseconds())
	}
	c.mark = now
}

// mttkrp records one completed MTTKRP kernel call (timed by the caller's
// stopwatch, which predates the clock) with its mode and op-unit delta.
func (c *phaseClock) mttkrp(mode int, d time.Duration, ops int64) {
	if c == nil {
		return
	}
	if c.rs != nil {
		ps := &c.rs.Phases[PhaseMTTKRP]
		ps.Time += d
		ps.Count++
		ps.Ops += ops
		mp := &c.rs.ModeMTTKRP[mode]
		mp.Time += d
		mp.Count++
		mp.Ops += ops
	}
	c.hist[PhaseMTTKRP].Observe(d.Seconds())
	if c.tr != nil {
		end := c.tr.Now()
		c.tr.EmitRange(c.modeNames[mode], 0, end-d.Nanoseconds(), d.Nanoseconds())
	}
}
