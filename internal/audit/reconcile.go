package audit

import (
	"fmt"
	"math"
	"strings"
)

// Canonical quantity names in Report.Quantities. Stable identifiers: the
// smoke tests, metrics layer, and experiment harness key on them.
const (
	QOpsPerIter     = "ops_per_iter"
	QPeakValueBytes = "peak_value_bytes"
	QIndexBytes     = "index_bytes"
	QMTTKRPSeconds  = "mttkrp_seconds_per_iter"
)

// DefaultWarnThreshold is the |relative error| above which a reconciliation
// emits a warning (and a warn-level log event when a logger is attached).
const DefaultWarnThreshold = 0.25

// Measured carries the run's measured counterparts of the model's
// predictions, collected from the engine counters and the per-phase run
// breakdown at run end.
type Measured struct {
	// Iters is the number of completed ALS iterations the totals were
	// averaged over.
	Iters int `json:"iters"`
	// OpsPerIter is the measured Hadamard op units per full iteration
	// (engine counter delta / iterations).
	OpsPerIter float64 `json:"ops_per_iter"`
	// MTTKRPSecondsPerIter is the measured wall time inside the MTTKRP
	// kernel per iteration.
	MTTKRPSecondsPerIter float64 `json:"mttkrp_seconds_per_iter"`
	// PeakValueBytes is the engine's peak simultaneously-live semi-sparse
	// value storage (atomic high-water mark).
	PeakValueBytes int64 `json:"peak_value_bytes"`
	// IndexBytes is the engine's symbolic index storage.
	IndexBytes int64 `json:"index_bytes"`
	// PhaseSeconds is the per-phase wall-time breakdown keyed by the
	// canonical cpd phase names; nil unless the run collected stats.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// ModeMTTKRPSeconds is the measured wall time of each mode's MTTKRP
	// call per iteration, indexed by mode; nil unless the run collected
	// per-mode stats.
	ModeMTTKRPSeconds []float64 `json:"mode_mttkrp_seconds,omitempty"`
}

// AccumOutcome is the per-mode reconciliation of an accumulation decision:
// the backend the model picked with its forecast for the accumulation
// component, alongside the measured wall time of the whole mode-MTTKRP
// call. The two scopes differ (the forecast covers only the accumulation
// layer), so the pair is informational — recorded for offline crossover
// analysis, never warned on.
type AccumOutcome struct {
	Mode             int     `json:"mode"`
	Strategy         string  `json:"strategy"`
	PredScatterNS    float64 `json:"pred_scatter_ns"`
	PredPrivatizeNS  float64 `json:"pred_privatize_ns"`
	MeasuredModeSecs float64 `json:"measured_mode_seconds,omitempty"`
}

// Quantity is one predicted/measured pair with its signed relative error.
type Quantity struct {
	Name      string  `json:"name"`
	Predicted float64 `json:"predicted"`
	Measured  float64 `json:"measured"`
	// RelErr is (predicted − measured) / measured: positive means the model
	// over-predicted. Always finite: a zero measurement yields 0 when the
	// prediction is also zero and ±1 (flagged in Warnings) otherwise.
	RelErr float64 `json:"rel_err"`
}

// Report is the reconciliation of one Decision against one run's
// measurements.
type Report struct {
	// Candidate is the candidate the measurements belong to — the chosen
	// one in production runs; sweep harnesses reconcile every candidate.
	Candidate string `json:"candidate"`
	Reason    string `json:"reason"`
	// Quantities holds the per-quantity predicted/measured pairs.
	Quantities []Quantity `json:"quantities"`
	Measured   Measured   `json:"measured_raw"`
	// MeasuredChoice is the candidate the selector would pick if the
	// reconciled candidate's predictions were replaced by its measurements
	// (other candidates keep their predictions — only one was run).
	MeasuredChoice string `json:"measured_choice"`
	// Top1Agreement is the paper's headline model metric: the chosen
	// candidate survives the substitution of measurement for prediction.
	Top1Agreement bool `json:"top1_agreement"`
	// Warnings lists quantities whose |relative error| exceeded
	// WarnThreshold, plus degenerate measurements.
	Warnings      []string `json:"warnings,omitempty"`
	WarnThreshold float64  `json:"warn_threshold"`
	// Accum is the per-mode accumulation-decision outcome table (see
	// AccumOutcome); nil when the decision predates accumulation planning.
	Accum []AccumOutcome `json:"accum,omitempty"`
}

// relErr computes the signed relative error (pred − meas)/meas, kept finite
// for degenerate measurements so exports never carry NaN/Inf.
func relErr(pred, meas float64) float64 {
	if meas == 0 {
		if pred == 0 {
			return 0
		}
		return math.Copysign(1, pred)
	}
	return (pred - meas) / meas
}

// Reconcile reconciles the decision's chosen candidate against the run's
// measurements. Returns nil when d is nil or the chosen candidate is
// missing from the record.
func Reconcile(d *Decision, m Measured) *Report {
	if d == nil {
		return nil
	}
	return ReconcileCandidate(d, d.Chosen, m)
}

// ReconcileCandidate is Reconcile against a specific candidate of the
// decision — sweep harnesses (the E7 model-accuracy experiment) measure
// every candidate, not only the chosen one.
func ReconcileCandidate(d *Decision, name string, m Measured) *Report {
	if d == nil {
		return nil
	}
	cand := d.Candidate(name)
	if cand == nil {
		return nil
	}
	rep := &Report{
		Candidate:     name,
		Reason:        d.Reason,
		Measured:      m,
		WarnThreshold: DefaultWarnThreshold,
	}
	add := func(qname string, pred, meas float64) {
		rep.Quantities = append(rep.Quantities, Quantity{
			Name: qname, Predicted: pred, Measured: meas, RelErr: relErr(pred, meas),
		})
	}
	add(QOpsPerIter, float64(cand.PredOps), m.OpsPerIter)
	// A retaining engine holds every intermediate at once, so its measured
	// peak is the retained sum rather than the two-path peak.
	predPeak := cand.PredPeakValueBytes
	if d.Retain {
		predPeak = cand.PredRetainedValueBytes
	}
	add(QPeakValueBytes, float64(predPeak), float64(m.PeakValueBytes))
	if m.IndexBytes > 0 {
		add(QIndexBytes, float64(cand.PredIndexBytes+d.streamBytes(cand)), float64(m.IndexBytes))
	}
	if cand.PredTimeNS > 0 && m.MTTKRPSecondsPerIter > 0 {
		add(QMTTKRPSeconds, float64(cand.PredTimeNS)/1e9, m.MTTKRPSecondsPerIter)
	}

	for _, a := range d.Accum {
		o := AccumOutcome{
			Mode:            a.Mode,
			Strategy:        a.Strategy,
			PredScatterNS:   a.PredScatterNS,
			PredPrivatizeNS: a.PredPrivatizeNS,
		}
		if a.Mode < len(m.ModeMTTKRPSeconds) {
			o.MeasuredModeSecs = m.ModeMTTKRPSeconds[a.Mode]
		}
		rep.Accum = append(rep.Accum, o)
	}

	rep.MeasuredChoice = measuredChoice(d, cand, m)
	rep.Top1Agreement = rep.MeasuredChoice == name

	for _, q := range rep.Quantities {
		if q.Measured == 0 && q.Predicted != 0 {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("%s: measured 0 against prediction %g", q.Name, q.Predicted))
			continue
		}
		if math.Abs(q.RelErr) > DefaultWarnThreshold {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("%s: relative error %+.1f%% exceeds %.0f%%", q.Name, 100*q.RelErr, 100*DefaultWarnThreshold))
		}
	}
	return rep
}

// measuredChoice re-runs the selection with the reconciled candidate's
// predictions replaced by its measurements: its cost key becomes the
// measured ops (or measured kernel time under time ranking) and its
// feasibility is re-evaluated from the measured footprint. Every other
// candidate keeps its predictions — only one strategy actually ran.
func measuredChoice(d *Decision, cand *CandidateRecord, m Measured) string {
	type scored struct {
		name     string
		key      float64
		footInt  int64
		feasible bool
	}
	cs := make([]scored, 0, len(d.Candidates))
	for i := range d.Candidates {
		c := &d.Candidates[i]
		s := scored{name: c.Name, feasible: c.Feasible, footInt: c.PredIndexBytes + c.PredPeakValueBytes}
		if d.ByTime && c.PredTimeNS > 0 {
			s.key = float64(c.PredTimeNS) / 1e9
		} else {
			s.key = float64(c.PredOps)
		}
		if c.Name == cand.Name {
			if d.ByTime && m.MTTKRPSecondsPerIter > 0 {
				s.key = m.MTTKRPSecondsPerIter
			} else if m.OpsPerIter > 0 {
				s.key = m.OpsPerIter
			}
			// Feasibility never counted the stream bytes (streaming is
			// decided after the choice), so they leave the measured side.
			s.footInt = m.IndexBytes - d.streamBytes(c) + m.PeakValueBytes
			s.feasible = d.Budget <= 0 || s.footInt <= d.Budget
		}
		cs = append(cs, s)
	}
	best := -1
	for i, s := range cs {
		if !s.feasible {
			continue
		}
		if best < 0 || s.key < cs[best].key {
			best = i
		}
	}
	if best < 0 {
		// Nothing feasible even after substitution: smallest footprint, the
		// selector's own fallback rule.
		best = 0
		for i, s := range cs {
			if s.footInt < cs[best].footInt {
				best = i
			}
		}
	}
	return cs[best].name
}

// Quantity returns the named predicted/measured pair, if present.
func (r *Report) Quantity(name string) (Quantity, bool) {
	for _, q := range r.Quantities {
		if q.Name == name {
			return q, true
		}
	}
	return Quantity{}, false
}

// String renders the reconciliation as a human-readable table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model audit: candidate=%s reason=%s iters=%d\n", r.Candidate, r.Reason, r.Measured.Iters)
	fmt.Fprintf(&b, "%-24s %16s %16s %9s\n", "quantity", "predicted", "measured", "rel err")
	for _, q := range r.Quantities {
		fmt.Fprintf(&b, "%-24s %16s %16s %+8.1f%%\n", q.Name, fmtQty(q.Name, q.Predicted), fmtQty(q.Name, q.Measured), 100*q.RelErr)
	}
	verdict := "agrees"
	if !r.Top1Agreement {
		verdict = "DISAGREES"
	}
	fmt.Fprintf(&b, "top-1: model %s with measurement (measured choice: %s)\n", verdict, r.MeasuredChoice)
	for _, a := range r.Accum {
		fmt.Fprintf(&b, "accum mode %d: %s (pred scatter %.3gms privatize %.3gms", a.Mode, a.Strategy,
			a.PredScatterNS/1e6, a.PredPrivatizeNS/1e6)
		if a.MeasuredModeSecs > 0 {
			fmt.Fprintf(&b, "; measured mode-MTTKRP %.3gms", a.MeasuredModeSecs*1e3)
		}
		fmt.Fprintf(&b, ")\n")
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	return b.String()
}

// fmtQty renders a quantity value in its natural unit.
func fmtQty(name string, v float64) string {
	switch name {
	case QPeakValueBytes, QIndexBytes:
		return fmtBytes(int64(v))
	case QMTTKRPSeconds:
		return fmt.Sprintf("%.3gs", v)
	default:
		return fmt.Sprintf("%.6g", v)
	}
}

// fmtBytes renders a byte count with binary-unit suffixes ("-" for <= 0,
// matching the plan report's formatter).
func fmtBytes(b int64) string {
	switch {
	case b <= 0:
		return "-"
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	}
}
