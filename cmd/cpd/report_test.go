package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adatm"
)

// The -json report must carry the per-phase breakdown: one symbolic build,
// and per iteration one MTTKRP, Gram (H), Solve, Normalize and Gram (the
// updated factor's) per mode plus one fit, besides the initial Grams and
// the tensor norm. The iteration phases must also account for TotalTime
// to within 5 %, in at least one of three runs: a missing phase falls
// short in every run, while a run the host's scheduler stalls outside the
// phases falls short only by chance.
func TestWriteReportPhaseSum(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{50, 50, 50}, NNZ: 20000, Seed: 3})
	var covered []string
	for attempt := 0; attempt < 3; attempt++ {
		rep := phaseReport(t, x)
		if t.Failed() || float64(rep.PhaseSumNS) >= 0.95*float64(rep.TotalNS) {
			return
		}
		covered = append(covered, fmt.Sprintf("%d of %d ns", rep.PhaseSumNS, rep.TotalNS))
	}
	t.Errorf("phase sum covers <95%% of total in every run: %s", strings.Join(covered, ", "))
}

// phaseSumReport is the part of the -json report TestWriteReportPhaseSum
// reads.
type phaseSumReport struct {
	Engine     string `json:"engine"`
	Iters      int    `json:"iters"`
	TotalNS    int64  `json:"total_ns"`
	PhaseSumNS int64  `json:"phase_sum_ns"`
	Stats      struct {
		Phases map[string]struct {
			TimeNS int64 `json:"time_ns"`
			Count  int64 `json:"count"`
			Ops    int64 `json:"ops"`
		} `json:"phases"`
		ModeMTTKRP []struct {
			TimeNS int64 `json:"time_ns"`
		} `json:"mode_mttkrp"`
	} `json:"stats"`
}

// phaseReport decomposes x with CollectStats, writes the -json report and
// checks everything in it that does not depend on the wall clock.
func phaseReport(t *testing.T, x *adatm.Tensor) phaseSumReport {
	t.Helper()
	res, err := adatm.Decompose(x, adatm.Options{
		Rank: 8, MaxIters: 10, Tol: 1e-15, Seed: 1, Workers: 1,
		Engine: adatm.EngineCOO, CollectStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "report.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeReport(f, "coo", 8, res, nil, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep phaseSumReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if rep.Engine != "coo" || rep.Iters != res.Iters {
		t.Errorf("report header mismatch: %+v", rep)
	}
	sections := int64(rep.Iters * x.Order())
	want := map[string]int64{
		"symbolic":  1,
		"mttkrp":    sections,
		"gram":      1 + 2*sections,
		"solve":     sections,
		"normalize": sections,
		"fit":       1 + int64(rep.Iters),
	}
	for name, count := range want {
		if got, ok := rep.Stats.Phases[name]; !ok {
			t.Errorf("phase %q missing from report", name)
		} else if got.Count != count {
			t.Errorf("phase %q ran %d sections, want %d", name, got.Count, count)
		}
	}
	if len(rep.Stats.ModeMTTKRP) != 3 {
		t.Errorf("mode_mttkrp has %d entries, want 3", len(rep.Stats.ModeMTTKRP))
	}
	if rep.Stats.Phases["mttkrp"].Ops == 0 {
		t.Error("mttkrp phase has zero ops")
	}
	// The phases never overlap, so their sum cannot pass the wall clock.
	if rep.PhaseSumNS > rep.TotalNS {
		t.Errorf("phase sum %d ns exceeds total %d ns", rep.PhaseSumNS, rep.TotalNS)
	}
	return rep
}

// A -health run's JSON report carries the final numerical-health verdict.
func TestWriteReportHealthVerdict(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{Dims: []int{30, 30, 30}, NNZ: 5000, Seed: 3})
	probe := adatm.NewHealthProbe(adatm.HealthConfig{})
	res, err := adatm.Decompose(x, adatm.Options{
		Rank: 4, MaxIters: 5, Tol: 1e-12, Seed: 1, Workers: 1,
		Engine: adatm.EngineCOO, Health: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := probe.Summary()

	path := filepath.Join(t.TempDir(), "report.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeReport(f, "coo", 4, res, nil, &sum); err != nil {
		t.Fatal(err)
	}
	f.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Health *struct {
			State string `json:"state"`
			Iters int    `json:"iters"`
		} `json:"health"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if rep.Health == nil {
		t.Fatal("health verdict missing from -json report")
	}
	if rep.Health.State != "healthy" || rep.Health.Iters != res.Iters {
		t.Errorf("health verdict = %+v, want healthy over %d iters", rep.Health, res.Iters)
	}
}
