package adatm_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"adatm"
)

// TestDecomposeWithObservability runs the public-API end-to-end path: a
// Decompose with a tracer and metrics registry attached must produce a
// Perfetto-parseable trace holding the ALS phase and per-mode MTTKRP spans,
// and a /metrics exposition with the engine, memo, and phase families.
func TestDecomposeWithObservability(t *testing.T) {
	x := testTensor(t)
	tr := adatm.NewTracer(0)
	reg := adatm.NewMetrics()
	res, err := adatm.Decompose(x, adatm.Options{
		Rank: 4, MaxIters: 3, Seed: 1, Workers: 1,
		Engine: adatm.EngineAdaptive,
		Tracer: tr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters == 0 {
		t.Fatal("run performed no iterations")
	}

	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	for _, want := range []string{"mttkrp/mode0", "gram", "solve", "normalize", "fit"} {
		if !seen[want] {
			t.Errorf("trace missing span %q", want)
		}
	}

	sb.Reset()
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"adatm_cpd_phase_seconds_bucket",
		`phase="mttkrp"`,
		"adatm_cpd_iterations_total 3",
		"adatm_cpd_fit",
		"adatm_memo_hits_total",
		"adatm_engine_mttkrp_calls_total",
		"adatm_par_chunk_imbalance_ratio",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestDecomposePermutedObserved: the permuted path builds its engine like
// Decompose does, so it records the selection decision, with the chosen
// order, and instruments the engine with the run's metrics and tracer.
func TestDecomposePermutedObserved(t *testing.T) {
	x := correlatedTensor(4000, 7)
	var ledger strings.Builder
	rec := adatm.NewAuditRecorder(adatm.AuditConfig{Ledger: &ledger})
	tr := adatm.NewTracer(0)
	reg := adatm.NewMetrics()
	_, err := adatm.DecomposePermuted(x, adatm.Options{
		Rank: 4, MaxIters: 3, Seed: 1, Workers: 1,
		Audit: rec, Tracer: tr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(ledger.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("ledger has %d records, want 1:\n%s", len(lines), ledger.String())
	}
	var line struct {
		Decision *struct {
			Chosen string `json:"chosen"`
			Dims   []int  `json:"dims"`
			Modes  []int  `json:"modes"`
		} `json:"decision"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatal(err)
	}
	d := rec.Latest().Decision
	if line.Decision == nil || d == nil || line.Decision.Chosen != d.Chosen {
		t.Fatalf("ledger decision %+v does not match the recorded one", line.Decision)
	}
	plan := adatm.PlanPermutedFor(x, 4, 0)
	if want := plan.Chosen.Strategy.Modes; want == nil || fmt.Sprint(line.Decision.Modes) != fmt.Sprint(want) {
		t.Errorf("decision modes %v, want the chosen order %v", line.Decision.Modes, want)
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "adatm_memo_hits_total") {
		t.Error("metrics exposition missing adatm_memo_hits_total")
	}
	sb.Reset()
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"memo.rebuild[`) {
		t.Error("trace has no memo.rebuild spans")
	}
}

// TestInstrumentWithDecomposeWith covers the advanced path: a caller-built
// engine instrumented explicitly, with only a registry (no tracer).
func TestInstrumentWithDecomposeWith(t *testing.T) {
	x := testTensor(t)
	eng, err := adatm.NewEngine(x, adatm.EngineCSF, adatm.EngineConfig{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := adatm.NewMetrics()
	adatm.Instrument(eng, nil, reg)
	if _, err := adatm.DecomposeWith(x, eng, adatm.Options{Rank: 4, MaxIters: 2, Seed: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `engine="csf"`) {
		t.Error("metrics exposition missing the csf engine series")
	}
}
