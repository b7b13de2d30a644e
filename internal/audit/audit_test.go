package audit

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"testing"

	"adatm/internal/model"
	"adatm/internal/obs"
	"adatm/internal/tensor"
)

// twoCandidates builds a minimal decision: A chosen at 100 predicted ops,
// B runner-up at 120, both feasible under an optional budget.
func twoCandidates(budget int64) *Decision {
	return &Decision{
		Dims: []int{10, 10, 10}, NNZ: 500, Rank: 8, Budget: budget,
		Candidates: []CandidateRecord{
			{Name: "A", Tree: "(0 [1-2])", PredOps: 100, PredIndexBytes: 1000, PredPeakValueBytes: 500, Feasible: true},
			{Name: "B", Tree: "([0-1] 2)", PredOps: 120, PredIndexBytes: 800, PredPeakValueBytes: 400, Feasible: true},
		},
		Chosen: "A", Reason: ReasonOpOptimal,
	}
}

func TestNewDecisionFromPlan(t *testing.T) {
	x := tensor.RandomClustered(4, 12, 800, 0.6, 41)
	plan := model.Select(x, model.Options{Rank: 8})
	d := NewDecision(plan)
	if d.Rank != 8 || d.NNZ != int64(x.NNZ()) || len(d.Dims) != 4 {
		t.Errorf("decision header = %+v", d)
	}
	if d.Chosen != plan.Chosen.Name || d.Reason != ReasonOpOptimal {
		t.Errorf("chosen=%q reason=%q, plan chose %q", d.Chosen, d.Reason, plan.Chosen.Name)
	}
	if len(d.Candidates) != len(plan.Candidates) {
		t.Fatalf("%d candidates, plan had %d", len(d.Candidates), len(plan.Candidates))
	}
	c := d.Candidate(d.Chosen)
	if c == nil || c.PredOps != plan.Chosen.Pred.Ops || c.Tree == "" {
		t.Errorf("chosen record = %+v", c)
	}
	if len(d.Ranges) == 0 {
		t.Error("decision lost the estimator's distinct-tuple table")
	}
	if d.Candidate("nonexistent") != nil {
		t.Error("Candidate(nonexistent) != nil")
	}

	// Budget-forced fallback must be recorded as such.
	forced := model.Select(x, model.Options{Rank: 8, Budget: 1})
	fd := NewDecision(forced)
	if fd.Reason != ReasonBudgetFallback {
		t.Errorf("tiny budget: reason = %q, want %q", fd.Reason, ReasonBudgetFallback)
	}
}

// A permuted plan's decision carries the chosen order, the ledger line of a
// natural one has no modes key, the per-mode accumulation outcome names
// the original mode at each position and reads its timing, and the validator
// rejects an order that does not permute the dims' positions.
func TestDecisionModeOrder(t *testing.T) {
	x := tensor.RandomClustered(4, 12, 800, 0.6, 41)
	natural := NewDecision(model.Select(x, model.Options{Rank: 8}))
	if natural.Modes != nil {
		t.Errorf("natural decision modes = %v", natural.Modes)
	}
	var buf bytes.Buffer
	if err := NewLedger(&buf).Append(Record{Decision: natural}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"modes"`) {
		t.Errorf("natural ledger line carries modes: %s", buf.String())
	}

	order := []int{3, 2, 1, 0}
	d := NewDecision(model.SelectPermuted(x, model.Options{Rank: 8}, map[string][]int{"rev": order}))
	if fmt.Sprint(d.Modes) != fmt.Sprint(order) {
		t.Fatalf("permuted decision modes = %v, want %v", d.Modes, order)
	}
	secs := []float64{0.1, 0.2, 0.3, 0.4}
	rep := Reconcile(d, Measured{Iters: 1, ModeMTTKRPSeconds: secs})
	if rep == nil || len(rep.Accum) != 4 {
		t.Fatalf("reconciliation = %+v", rep)
	}
	for p, a := range rep.Accum {
		if a.Mode != order[p] {
			t.Errorf("accum position %d names mode %d, want %d", p, a.Mode, order[p])
		}
		if want := secs[order[p]]; a.MeasuredModeSecs != want {
			t.Errorf("accum position %d: measured %v, want mode %d's %v", p, a.MeasuredModeSecs, order[p], want)
		}
	}
	buf.Reset()
	if err := NewLedger(&buf).Append(Record{Decision: d}); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateLedger(&buf); n != 1 || err != nil {
		t.Errorf("ValidateLedger = %d, %v on a permuted decision", n, err)
	}
	for _, bad := range []string{`[0,1,2]`, `[0,1,2,2]`, `[0,1,2,4]`, `[-1,0,1,2]`} {
		line := `{"decision":{"chosen":"rev/flat","dims":[4,3,2,1],"modes":` + bad + `}}`
		if _, err := ValidateLedger(strings.NewReader(line)); err == nil {
			t.Errorf("modes %s accepted", bad)
		}
	}
}

func TestReconcileAgreement(t *testing.T) {
	d := twoCandidates(0)
	rep := Reconcile(d, Measured{Iters: 3, OpsPerIter: 100, PeakValueBytes: 500, IndexBytes: 1000})
	if rep == nil {
		t.Fatal("nil report")
	}
	q, ok := rep.Quantity(QOpsPerIter)
	if !ok || q.RelErr != 0 {
		t.Errorf("ops quantity = %+v", q)
	}
	if !rep.Top1Agreement || rep.MeasuredChoice != "A" {
		t.Errorf("agreement=%v choice=%q, want true/A", rep.Top1Agreement, rep.MeasuredChoice)
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", rep.Warnings)
	}
	if _, ok := rep.Quantity(QMTTKRPSeconds); ok {
		t.Error("time quantity present without a time prediction")
	}
}

// When the chosen candidate's measured cost overtakes the runner-up's
// prediction, the substitution re-rank must flip the verdict.
func TestReconcileTop1Flip(t *testing.T) {
	d := twoCandidates(0)
	rep := Reconcile(d, Measured{Iters: 3, OpsPerIter: 150, PeakValueBytes: 500, IndexBytes: 1000})
	if rep.Top1Agreement || rep.MeasuredChoice != "B" {
		t.Errorf("agreement=%v choice=%q, want false/B", rep.Top1Agreement, rep.MeasuredChoice)
	}
	// rel err = (100-150)/150: the model under-predicted by a third.
	q, _ := rep.Quantity(QOpsPerIter)
	if math.Abs(q.RelErr-(-1.0/3)) > 1e-12 {
		t.Errorf("rel err = %v", q.RelErr)
	}
	// |−33%| exceeds the default 25% threshold.
	if len(rep.Warnings) == 0 || !strings.Contains(rep.Warnings[0], QOpsPerIter) {
		t.Errorf("warnings = %v", rep.Warnings)
	}
}

// A measured footprint that blows the budget makes the chosen candidate
// infeasible under substitution even if its measured ops stay lowest.
func TestReconcileMeasuredFootprintInfeasible(t *testing.T) {
	d := twoCandidates(1500)
	rep := Reconcile(d, Measured{Iters: 3, OpsPerIter: 100, PeakValueBytes: 5000, IndexBytes: 1000})
	if rep.Top1Agreement || rep.MeasuredChoice != "B" {
		t.Errorf("agreement=%v choice=%q, want false/B (measured footprint 6000 > budget 1500)",
			rep.Top1Agreement, rep.MeasuredChoice)
	}
}

func TestReconcileDegenerateMeasurement(t *testing.T) {
	d := twoCandidates(0)
	rep := Reconcile(d, Measured{Iters: 1})
	for _, q := range rep.Quantities {
		if math.IsNaN(q.RelErr) || math.IsInf(q.RelErr, 0) {
			t.Errorf("%s: non-finite rel err %v", q.Name, q.RelErr)
		}
	}
	q, _ := rep.Quantity(QOpsPerIter)
	if q.RelErr != 1 {
		t.Errorf("zero measurement, positive prediction: rel err = %v, want +1", q.RelErr)
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "measured 0") {
			found = true
		}
	}
	if !found {
		t.Errorf("no degenerate-measurement warning: %v", rep.Warnings)
	}
}

func TestReconcileNilAndMissing(t *testing.T) {
	if Reconcile(nil, Measured{}) != nil {
		t.Error("nil decision must reconcile to nil")
	}
	if ReconcileCandidate(twoCandidates(0), "nope", Measured{}) != nil {
		t.Error("missing candidate must reconcile to nil")
	}
}

func TestReportString(t *testing.T) {
	d := twoCandidates(0)
	rep := Reconcile(d, Measured{Iters: 3, OpsPerIter: 110, PeakValueBytes: 500, IndexBytes: 1000})
	s := rep.String()
	for _, frag := range []string{"candidate=A", QOpsPerIter, "top-1: model agrees", "rel err"} {
		if !strings.Contains(s, frag) {
			t.Errorf("report table missing %q:\n%s", frag, s)
		}
	}
	flip := Reconcile(d, Measured{Iters: 3, OpsPerIter: 200, PeakValueBytes: 500, IndexBytes: 1000})
	if !strings.Contains(flip.String(), "DISAGREES") {
		t.Errorf("flip table missing DISAGREES:\n%s", flip.String())
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf)
	d := twoCandidates(0)
	rep := Reconcile(d, Measured{Iters: 3, OpsPerIter: 100, PeakValueBytes: 500, IndexBytes: 1000})
	if err := l.Append(Record{Decision: d}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Decision: d, Report: rep}); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateLedger(bytes.NewReader(buf.Bytes()))
	if n != 2 || err != nil {
		t.Errorf("ValidateLedger = %d, %v; want 2, nil", n, err)
	}

	// Malformed and decision-less lines must be rejected with their line number.
	if _, err := ValidateLedger(strings.NewReader("{not json}\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ValidateLedger(strings.NewReader("{\"report\":null}\n")); err == nil {
		t.Error("decision-less record accepted")
	}
	if n, err := ValidateLedger(strings.NewReader("\n\n")); n != 0 || err != nil {
		t.Errorf("blank ledger = %d, %v", n, err)
	}
	if NewLedger(nil) != nil {
		t.Error("NewLedger(nil) != nil")
	}
	var nilLedger *Ledger
	if err := nilLedger.Append(Record{}); err != nil {
		t.Errorf("nil ledger Append: %v", err)
	}
}

func TestRecorderFanOut(t *testing.T) {
	var logBuf, ledgerBuf bytes.Buffer
	reg := obs.NewRegistry()
	var updates []Record
	rec := NewRecorder(Config{
		Logger:  slog.New(slog.NewJSONHandler(&logBuf, nil)),
		Ledger:  &ledgerBuf,
		Metrics: reg,
		OnUpdate: func(r Record) {
			updates = append(updates, r)
		},
	})

	d := twoCandidates(0)
	rec.RecordDecision(d)
	rep := rec.Reconcile(Measured{Iters: 3, OpsPerIter: 110, PeakValueBytes: 600, IndexBytes: 1000})
	if rep == nil {
		t.Fatal("Reconcile returned nil with a decision recorded")
	}

	latest := rec.Latest()
	if latest.Decision != d || latest.Report != rep {
		t.Error("Latest does not carry the decision and report")
	}
	if len(updates) != 2 || updates[0].Report != nil || updates[1].Report == nil {
		t.Errorf("OnUpdate sequence wrong: %d updates", len(updates))
	}

	logs := logBuf.String()
	for _, event := range []string{"model.selection", "model.reconciliation"} {
		if !strings.Contains(logs, event) {
			t.Errorf("log missing %s event:\n%s", event, logs)
		}
	}
	if strings.Contains(logs, "model.budget_fallback") {
		t.Error("unexpected budget_fallback event for an op-optimal decision")
	}

	var expo strings.Builder
	if _, err := reg.WriteTo(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	for _, series := range []string{
		`adatm_model_predicted_ops{strategy="A"} 100`,
		`adatm_model_measured_ops{strategy="A"} 110`,
		`adatm_model_ops_relative_error{strategy="A"}`,
		`adatm_model_predicted_peak_bytes{strategy="A"} 500`,
		`adatm_model_measured_peak_bytes{strategy="A"} 600`,
		`adatm_model_top1_agreement{strategy="A"} 1`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing %s:\n%s", series, out)
		}
	}

	if n, err := ValidateLedger(bytes.NewReader(ledgerBuf.Bytes())); n != 1 || err != nil {
		t.Errorf("ledger after reconcile = %d, %v; want 1, nil", n, err)
	}
}

func TestRecorderBudgetFallbackAndWarnEvents(t *testing.T) {
	var logBuf bytes.Buffer
	rec := NewRecorder(Config{Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	d := twoCandidates(0)
	d.Reason = ReasonBudgetFallback
	rec.RecordDecision(d)
	if !strings.Contains(logBuf.String(), "model.budget_fallback") {
		t.Errorf("no budget_fallback event:\n%s", logBuf.String())
	}
	logBuf.Reset()
	rec.Reconcile(Measured{Iters: 1, OpsPerIter: 300, PeakValueBytes: 500, IndexBytes: 1000})
	if !strings.Contains(logBuf.String(), "model.prediction_error") {
		t.Errorf("no prediction_error warning for a 3x miss:\n%s", logBuf.String())
	}
}

func TestRecorderNoDecision(t *testing.T) {
	rec := NewRecorder(Config{})
	if rec.Reconcile(Measured{Iters: 1}) != nil {
		t.Error("Reconcile without a decision must return nil")
	}
	if l := rec.Latest(); l.Decision != nil || l.Report != nil {
		t.Errorf("Latest = %+v, want empty", l)
	}
}

// A nil recorder is the uninstrumented path: every method must be a pointer
// test and nothing else — zero allocations.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var rec *Recorder
	d := twoCandidates(0)
	m := Measured{Iters: 3, OpsPerIter: 100}
	allocs := testing.AllocsPerRun(100, func() {
		rec.RecordDecision(d)
		rec.Reconcile(m)
		rec.Latest()
	})
	if allocs != 0 {
		t.Errorf("nil recorder: %v allocs per call set, want 0", allocs)
	}
}

func TestRecordString(t *testing.T) {
	if !strings.Contains(Record{}.String(), "no decision") {
		t.Error("empty record String misses the no-decision notice")
	}
	d := twoCandidates(0)
	rep := Reconcile(d, Measured{Iters: 3, OpsPerIter: 100, PeakValueBytes: 500, IndexBytes: 1000})
	s := Record{Decision: d, Report: rep}.String()
	for _, frag := range []string{"decision:", "chosen=A", "model audit:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("record String missing %q:\n%s", frag, s)
		}
	}
}

func TestRecordEventLedgerAndValidate(t *testing.T) {
	var ledger bytes.Buffer
	var logs bytes.Buffer
	rec := NewRecorder(Config{Ledger: &ledger, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	rec.RecordEvent(Event{Kind: "resume", Iter: 7, Path: "ck/ckpt-00000007.json", Fingerprint: "deadbeef"})
	rec.RecordEvent(Event{}) // kindless events are dropped, not written

	n, err := ValidateLedger(bytes.NewReader(ledger.Bytes()))
	if err != nil || n != 1 {
		t.Fatalf("ValidateLedger = %d, %v; ledger: %s", n, err, ledger.String())
	}
	for _, want := range []string{`"kind":"resume"`, `"iter":7`, "deadbeef"} {
		if !strings.Contains(ledger.String(), want) {
			t.Errorf("ledger missing %s: %s", want, ledger.String())
		}
	}
	if !strings.Contains(logs.String(), "run.resume") {
		t.Errorf("log missing run.resume: %s", logs.String())
	}

	// A mixed ledger (decision line + event line) validates; a kindless
	// event line does not.
	mixed := ledger.String() + "\n" + `{"decision":{"chosen":"A"}}` + "\n"
	if n, err := ValidateLedger(strings.NewReader(mixed)); err != nil || n != 2 {
		t.Errorf("mixed ledger = %d, %v", n, err)
	}
	if _, err := ValidateLedger(strings.NewReader(`{"event":{"iter":3}}`)); err == nil {
		t.Error("kindless event accepted")
	}
}

func TestEventRecordString(t *testing.T) {
	r := Record{Event: &Event{Kind: "resume", Iter: 4, Path: "p.json"}}
	s := r.String()
	if !strings.Contains(s, "resume") || !strings.Contains(s, "4") {
		t.Errorf("event record renders as %q", s)
	}
}

// A nil recorder must remain free to use from every path, events included.
func TestNilRecorderEvent(t *testing.T) {
	var rec *Recorder
	rec.RecordEvent(Event{Kind: "resume"})
}
