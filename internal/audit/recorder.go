package audit

import (
	"io"
	"log/slog"
	"sync"

	"adatm/internal/obs"
)

// Config parameterizes a Recorder. Every sink is optional.
type Config struct {
	// Logger receives structured events: selection made, budget fallback
	// taken, reconciliation complete, relative error above threshold.
	Logger *slog.Logger
	// Ledger receives one JSONL record per reconciliation (the decision
	// ledger; typically an -auditfile).
	Ledger io.Writer
	// Metrics receives the adatm_model_* gauges at reconciliation time.
	Metrics *obs.Registry
	// OnUpdate is invoked (outside the recorder lock) after each decision
	// and each reconciliation with the latest record — the hook the CLI
	// uses to refresh the /plan debug endpoint.
	OnUpdate func(Record)
}

// Recorder is the run-scoped audit hook: the selection path deposits the
// Decision, the run driver deposits the Measured counters at run end, and
// the recorder fans the reconciled Report out to every configured sink.
//
// A nil *Recorder is valid and free: every method no-ops after one pointer
// test, so the uninstrumented path costs nothing.
type Recorder struct {
	cfg    Config
	ledger *Ledger

	mu  sync.Mutex
	dec *Decision
	rep *Report
}

// NewRecorder builds a recorder over the configured sinks.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg, ledger: NewLedger(cfg.Ledger)}
}

// RecordDecision stores the selection decision and emits the selection
// events. Later decisions replace earlier ones (one recorder serves one
// run at a time; sweeps use the ledger for history).
func (r *Recorder) RecordDecision(d *Decision) {
	if r == nil || d == nil {
		return
	}
	r.mu.Lock()
	r.dec = d
	r.rep = nil
	r.mu.Unlock()

	if lg := r.cfg.Logger; lg != nil {
		chosen := d.Candidate(d.Chosen)
		attrs := []any{
			slog.String("chosen", d.Chosen),
			slog.String("reason", d.Reason),
			slog.Int("candidates", len(d.Candidates)),
			slog.Int("rank", d.Rank),
			slog.Int64("nnz", d.NNZ),
			slog.Int64("budget_bytes", d.Budget),
		}
		if chosen != nil {
			attrs = append(attrs,
				slog.Int64("pred_ops", chosen.PredOps),
				slog.Int64("pred_peak_value_bytes", chosen.PredPeakValueBytes),
				slog.String("tree", chosen.Tree))
		}
		lg.Info("model.selection", attrs...)
		if d.Reason == ReasonBudgetFallback {
			lg.Warn("model.budget_fallback",
				slog.String("chosen", d.Chosen),
				slog.Int64("budget_bytes", d.Budget))
		}
	}
	if fn := r.cfg.OnUpdate; fn != nil {
		fn(Record{Decision: d})
	}
}

// RecordEvent appends a run-lifecycle event (e.g. a checkpoint resume) to
// the ledger and emits it as a structured log event. Events don't disturb
// the pending decision/report pair.
func (r *Recorder) RecordEvent(ev Event) {
	if r == nil || ev.Kind == "" {
		return
	}
	if lg := r.cfg.Logger; lg != nil {
		lg.Info("run."+ev.Kind,
			slog.Int("iter", ev.Iter),
			slog.String("path", ev.Path),
			slog.String("fingerprint", ev.Fingerprint),
			slog.String("detail", ev.Detail))
	}
	if err := r.ledger.Append(Record{Event: &ev}); err != nil && r.cfg.Logger != nil {
		r.cfg.Logger.Error("model.ledger_append", slog.String("error", err.Error()))
	}
}

// Reconcile reconciles the stored decision against the run's measurements
// and fans the report out: metrics gauges, log events, the JSONL ledger,
// and the OnUpdate hook. Returns nil when no decision was recorded (e.g. a
// non-adaptive engine ran).
func (r *Recorder) Reconcile(m Measured) *Report {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	d := r.dec
	r.mu.Unlock()
	if d == nil {
		return nil
	}
	rep := Reconcile(d, m)
	if rep == nil {
		return nil
	}
	r.mu.Lock()
	r.rep = rep
	r.mu.Unlock()

	r.exportMetrics(rep)
	if lg := r.cfg.Logger; lg != nil {
		attrs := []any{
			slog.String("candidate", rep.Candidate),
			slog.Bool("top1_agreement", rep.Top1Agreement),
			slog.String("measured_choice", rep.MeasuredChoice),
			slog.Int("iters", m.Iters),
		}
		for _, q := range rep.Quantities {
			attrs = append(attrs, slog.Group(q.Name,
				slog.Float64("predicted", q.Predicted),
				slog.Float64("measured", q.Measured),
				slog.Float64("rel_err", q.RelErr)))
		}
		lg.Info("model.reconciliation", attrs...)
		for _, w := range rep.Warnings {
			lg.Warn("model.prediction_error", slog.String("detail", w))
		}
	}
	if err := r.ledger.Append(Record{Decision: d, Report: rep}); err != nil && r.cfg.Logger != nil {
		r.cfg.Logger.Error("model.ledger_append", slog.String("error", err.Error()))
	}
	if fn := r.cfg.OnUpdate; fn != nil {
		fn(Record{Decision: d, Report: rep})
	}
	return rep
}

// exportMetrics publishes the reconciliation as adatm_model_* gauges,
// labelled by the reconciled strategy name.
func (r *Recorder) exportMetrics(rep *Report) {
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	l := obs.Labels{"strategy": rep.Candidate}
	if q, ok := rep.Quantity(QOpsPerIter); ok {
		reg.Gauge("adatm_model_predicted_ops",
			"Cost-model predicted Hadamard op units per ALS iteration.", l).Set(q.Predicted)
		reg.Gauge("adatm_model_measured_ops",
			"Measured Hadamard op units per ALS iteration.", l).Set(q.Measured)
		reg.Gauge("adatm_model_ops_relative_error",
			"Signed relative error of the op prediction ((pred-meas)/meas).", l).Set(q.RelErr)
	}
	if q, ok := rep.Quantity(QPeakValueBytes); ok {
		reg.Gauge("adatm_model_predicted_peak_bytes",
			"Cost-model predicted peak live value bytes.", l).Set(q.Predicted)
		reg.Gauge("adatm_model_measured_peak_bytes",
			"Measured peak live value bytes.", l).Set(q.Measured)
	}
	agree := 0.0
	if rep.Top1Agreement {
		agree = 1
	}
	reg.Gauge("adatm_model_top1_agreement",
		"1 when the chosen strategy survives substituting measurement for prediction.", l).Set(agree)
}

// Latest returns the most recent decision and report (either may be nil).
func (r *Recorder) Latest() Record {
	if r == nil {
		return Record{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Record{Decision: r.dec, Report: r.rep}
}
