package audit_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"adatm"
	"adatm/internal/audit"
	"adatm/internal/cpd"
	"adatm/internal/obs"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

// End to end: an adaptive Decompose with an audit recorder attached must
// capture the selection decision and reconcile it against the finished run
// with finite errors and exact op agreement (the op formula is exact given
// the engine's own counters).
func TestDecomposeAuditEndToEnd(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{40, 30, 20, 10}, NNZ: 4000, Seed: 7})
	var ledger bytes.Buffer
	reg := adatm.NewMetrics()
	rec := adatm.NewAuditRecorder(adatm.AuditConfig{Ledger: &ledger, Metrics: reg})
	res, err := adatm.Decompose(x, adatm.Options{
		Rank: 4, MaxIters: 3, Tol: 1e-15, Seed: 1, Workers: 1,
		Engine: adatm.EngineAdaptive, CollectStats: true, Audit: rec,
	})
	if err != nil {
		t.Fatal(err)
	}

	latest := rec.Latest()
	if latest.Decision == nil {
		t.Fatal("no decision recorded by adaptive Decompose")
	}
	if latest.Report == nil {
		t.Fatal("no reconciliation recorded at run end")
	}
	rep := latest.Report
	if rep.Candidate != latest.Decision.Chosen {
		t.Errorf("report candidate %q != chosen %q", rep.Candidate, latest.Decision.Chosen)
	}
	if rep.Measured.Iters != res.Iters {
		t.Errorf("measured iters %d != result iters %d", rep.Measured.Iters, res.Iters)
	}
	q, ok := rep.Quantity(audit.QOpsPerIter)
	if !ok {
		t.Fatal("no ops quantity in report")
	}
	if q.Measured <= 0 || math.Abs(q.RelErr) > 0.05 {
		t.Errorf("op prediction off by %+.1f%% (pred %g, meas %g); the sketch should be near-exact at this size",
			100*q.RelErr, q.Predicted, q.Measured)
	}
	for _, qq := range rep.Quantities {
		if math.IsNaN(qq.RelErr) || math.IsInf(qq.RelErr, 0) {
			t.Errorf("%s: non-finite rel err", qq.Name)
		}
	}

	// The ledger line written at reconcile time must validate.
	if n, err := audit.ValidateLedger(bytes.NewReader(ledger.Bytes())); n != 1 || err != nil {
		t.Errorf("ledger = %d records, %v; want 1, nil", n, err)
	}

	// The gauges must be live on the registry.
	var expo bytes.Buffer
	if _, err := reg.WriteTo(&expo); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"adatm_model_predicted_ops", "adatm_model_measured_ops",
		"adatm_model_ops_relative_error", "adatm_model_top1_agreement"} {
		if !bytes.Contains(expo.Bytes(), []byte(series)) {
			t.Errorf("exposition missing %s", series)
		}
	}

	// The per-phase breakdown keys must round-trip through cpd.ParsePhase:
	// the audit layer records them by canonical name, and a renamed phase
	// would silently orphan the history.
	if len(rep.Measured.PhaseSeconds) != int(cpd.NumPhases) {
		t.Errorf("PhaseSeconds has %d entries, want %d", len(rep.Measured.PhaseSeconds), cpd.NumPhases)
	}
	for name := range rep.Measured.PhaseSeconds {
		if _, err := cpd.ParsePhase(name); err != nil {
			t.Errorf("phase key %q does not round-trip: %v", name, err)
		}
	}
}

// A non-adaptive engine records no decision; the recorder must stay empty
// rather than reconciling against nothing.
func TestDecomposeAuditNonAdaptive(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{20, 15, 10}, NNZ: 800, Seed: 3})
	rec := adatm.NewAuditRecorder(adatm.AuditConfig{})
	_, err := adatm.Decompose(x, adatm.Options{
		Rank: 4, MaxIters: 2, Seed: 1, Workers: 1, Engine: adatm.EngineCOO, Audit: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if l := rec.Latest(); l.Decision != nil || l.Report != nil {
		t.Errorf("coo engine produced an audit record: %+v", l)
	}
}

// The /run snapshot of an audited CLI run embeds the audit record; publishing
// and scraping it concurrently must be race-free and always serve complete
// JSON (regression: atomic.Value payloads must be immutable snapshots).
func TestRunSnapshotWithReportConcurrentScrape(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{30, 20, 10, 8}, NNZ: 2000, Seed: 11})
	rec := adatm.NewAuditRecorder(adatm.AuditConfig{})
	if _, err := adatm.Decompose(x, adatm.Options{
		Rank: 4, MaxIters: 2, Seed: 1, Workers: 1, Engine: adatm.EngineAdaptive,
		CollectStats: true, Audit: rec,
	}); err != nil {
		t.Fatal(err)
	}
	latest := rec.Latest()
	if latest.Report == nil {
		t.Fatal("no report to publish")
	}

	srv, err := obs.Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type snapshot struct {
		Iter  int           `json:"iter"`
		Done  bool          `json:"done"`
		Audit *audit.Record `json:"audit,omitempty"`
	}
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.SetRun(snapshot{Iter: i, Done: true, Audit: &latest})
		}
	}()
	defer close(stop)

	for i := 0; i < 30; i++ {
		var snap snapshot
		getJSON(t, "http://"+srv.Addr()+"/run", &snap)
		if snap.Audit == nil || snap.Audit.Report == nil {
			t.Fatalf("scrape %d: snapshot lost the audit record", i)
		}
		if snap.Audit.Report.Candidate != latest.Report.Candidate {
			t.Fatalf("scrape %d: candidate %q != %q", i, snap.Audit.Report.Candidate, latest.Report.Candidate)
		}
	}
}

// A retaining engine holds every intermediate, so reconciliation compares
// its measured peak against the retained prediction. On memo-zipf4's shape
// and on an order-8 tree whose retained sum exceeds its two-path peak, the
// peak_value_bytes quantity must reconcile without a warning.
func TestAuditRetainedPeak(t *testing.T) {
	for _, spec := range []adatm.GenSpec{
		{Name: "memo-zipf4", Dims: []int{1024, 1024, 1024, 1024}, NNZ: 60000, Skew: []float64{0.8, 0.8, 0.8, 0.8}, Seed: 1},
		{Name: "order8", Dims: []int{10, 10, 10, 10, 10, 10, 10, 10}, NNZ: 3000, Skew: []float64{0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6}, Seed: 2},
	} {
		x := adatm.Generate(spec)
		rec := adatm.NewAuditRecorder(adatm.AuditConfig{})
		if _, err := adatm.Decompose(x, adatm.Options{
			Rank: 16, MaxIters: 2, Tol: 1e-15, Seed: 1, Workers: 1,
			Engine: adatm.EngineAdaptive, Audit: rec,
		}); err != nil {
			t.Fatal(err)
		}
		latest := rec.Latest()
		d, rep := latest.Decision, latest.Report
		if d == nil || rep == nil {
			t.Fatalf("%s: decision or report missing", spec.Name)
		}
		if !d.Retain {
			t.Fatalf("%s: unbounded decision does not retain", spec.Name)
		}
		cand := d.Candidate(d.Chosen)
		q, ok := rep.Quantity(audit.QPeakValueBytes)
		if !ok {
			t.Fatalf("%s: no peak_value_bytes quantity", spec.Name)
		}
		if q.Predicted != float64(cand.PredRetainedValueBytes) {
			t.Errorf("%s: peak compared against %g, want the retained prediction %d",
				spec.Name, q.Predicted, cand.PredRetainedValueBytes)
		}
		for _, w := range rep.Warnings {
			if strings.HasPrefix(w, audit.QPeakValueBytes) {
				t.Errorf("%s: %s", spec.Name, w)
			}
		}
	}
}

// The plan streams the root children when their bytes fit and records the
// decision; a budget one byte short of index + retained value + stream bytes
// keeps the same tree and retention but declines streaming. Reconciliation
// then predicts the index bytes without the stream bytes, and the declining
// engine measures exactly the predicted stream bytes fewer.
func TestAuditStreamDecision(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{1024, 1024, 1024, 1024}, NNZ: 20000,
		Skew: []float64{0.8, 0.8, 0.8, 0.8}, Seed: 1})
	run := func(budget int64) (*audit.Decision, audit.Quantity) {
		t.Helper()
		rec := adatm.NewAuditRecorder(adatm.AuditConfig{})
		if _, err := adatm.Decompose(x, adatm.Options{
			Rank: 16, MaxIters: 2, Tol: 1e-15, Seed: 1, Workers: 1,
			Engine: adatm.EngineAdaptive, MemoryBudget: budget, Audit: rec,
		}); err != nil {
			t.Fatal(err)
		}
		latest := rec.Latest()
		q, ok := latest.Report.Quantity(audit.QIndexBytes)
		if !ok {
			t.Fatal("no index_bytes quantity")
		}
		return latest.Decision, q
	}
	free, freeQ := run(0)
	cand := free.Candidate(free.Chosen)
	if !free.Stream || cand.PredStreamBytes <= 0 {
		t.Fatalf("unbounded decision: stream %v, %d stream bytes", free.Stream, cand.PredStreamBytes)
	}
	if freeQ.Predicted != float64(cand.PredIndexBytes+cand.PredStreamBytes) {
		t.Errorf("streamed index bytes predicted as %g, want index + stream %d", freeQ.Predicted, cand.PredIndexBytes+cand.PredStreamBytes)
	}
	budget := cand.PredIndexBytes + cand.PredRetainedValueBytes + cand.PredStreamBytes - 1
	tight, tightQ := run(budget)
	if tight.Chosen != free.Chosen || !tight.Retain || tight.Stream {
		t.Fatalf("budget %d: chose %s retain %v stream %v, want %s retaining without streaming",
			budget, tight.Chosen, tight.Retain, tight.Stream, free.Chosen)
	}
	if tightQ.Predicted != float64(cand.PredIndexBytes) {
		t.Errorf("declined index bytes predicted as %g, want %d", tightQ.Predicted, cand.PredIndexBytes)
	}
	if d := freeQ.Measured - tightQ.Measured; d != float64(cand.PredStreamBytes) {
		t.Errorf("streaming measured %g more index bytes, predicted %d", d, cand.PredStreamBytes)
	}
}
