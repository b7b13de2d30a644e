package perf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec declares two end-to-end metrics, one per direction, and two
// layers.
var testSpec = &Spec{
	EndToEnd: []MetricSpec{
		{Name: "decompose_s", Better: "lower", Bound: 0.25},
		{Name: "fit", Better: "higher", Bound: 0.02},
	},
	PerLayer: []MetricSpec{
		{Name: "cpd.solve_s", Better: "lower"},
		{Name: "mttkrp.s", Better: "lower"},
	},
}

// vals maps workload -> metric -> one value per seed.
type vals map[string]map[string][]float64

// mkResult builds a result with an untraced and a traced run per workload
// and seed; each metric goes into the run of its trace mode in testSpec.
func mkResult(v vals) *Result {
	layer := map[string]bool{}
	for _, m := range testSpec.PerLayer {
		layer[m.Name] = true
	}
	r := &Result{Format: FormatVersion, Env: Fingerprint()}
	for w, metrics := range v {
		for metric, xs := range metrics {
			for len(r.Seeds) < len(xs) {
				r.Seeds = append(r.Seeds, int64(len(r.Seeds)+1))
			}
			for i, x := range xs {
				trace := 0
				if layer[metric] {
					trace = 1
				}
				run := r.run(w, int64(i+1), trace)
				run.Report.Metrics[metric] = Metric{Value: x}
			}
		}
	}
	return r
}

// run returns the run of workload w, seed and trace mode, adding a correct
// one with three attempts if r has none.
func (r *Result) run(w string, seed int64, trace int) *Run {
	for i := range r.Runs {
		if run := &r.Runs[i]; run.Workload == w && run.Seed == seed && run.Trace == trace {
			return run
		}
	}
	r.Runs = append(r.Runs, Run{Workload: w, Seed: seed, Trace: trace,
		Report: Report{Correct: true, Attempted: 3, Metrics: map[string]Metric{}}})
	return &r.Runs[len(r.Runs)-1]
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

var (
	decS   = []float64{0.200, 0.202, 0.199, 0.205, 0.201}
	solveS = []float64{0.050, 0.051, 0.049, 0.052, 0.050}
	mttS   = []float64{0.300, 0.303, 0.298, 0.301, 0.299}
	fits   = []float64{0.9954, 0.9955, 0.9953, 0.9956, 0.9954}
)

func baseVals() vals {
	return vals{
		"hot":  {"decompose_s": decS, "fit": fits, "cpd.solve_s": solveS, "mttkrp.s": mttS},
		"cold": {"decompose_s": scale(decS, 3), "fit": fits, "cpd.solve_s": solveS, "mttkrp.s": mttS},
	}
}

func TestCompareSelfPasses(t *testing.T) {
	base := mkResult(baseVals())
	c := Compare(testSpec, base, base)
	if err := c.Gate(); err != nil {
		t.Fatalf("self-compare gate failed: %v", err)
	}
	if len(c.Deltas) != 8 {
		t.Errorf("%d deltas, want 2 workloads × 4 metrics", len(c.Deltas))
	}
	for _, d := range c.Deltas {
		if d.Regression || d.Improvement || d.moved() || d.P < alpha {
			t.Errorf("self-compare delta flagged: %+v", d)
		}
		if d.DeltaPct != 0 {
			t.Errorf("self-compare delta pct = %v, want 0", d.DeltaPct)
		}
	}
	if !c.EnvComparable {
		t.Error("same-process envs reported as not comparable")
	}
}

// A slowed workload fails the gate, and the message names the workload,
// the end-to-end metric and the layer that moved, not the unchanged ones.
func TestCompareDetectsRegression(t *testing.T) {
	v := baseVals()
	v["hot"] = map[string][]float64{"decompose_s": scale(decS, 1.3), "fit": fits,
		"cpd.solve_s": scale(solveS, 1.8), "mttkrp.s": scale(mttS, 1.01)}
	c := Compare(testSpec, mkResult(baseVals()), mkResult(v))
	err := c.Gate()
	if err == nil {
		t.Fatal("gate passed despite a 30% decompose_s regression")
	}
	msg := err.Error()
	for _, want := range []string{"hot: decompose_s +30%", "layers: cpd.solve_s +80%"} {
		if !strings.Contains(msg, want) {
			t.Errorf("gate error lacks %q:\n%s", want, msg)
		}
	}
	for _, unwanted := range []string{"cold", "mttkrp.s", "fit"} {
		if strings.Contains(msg, unwanted) {
			t.Errorf("gate error names the unchanged %s:\n%s", unwanted, msg)
		}
	}
}

func TestCompareImprovementDoesNotGate(t *testing.T) {
	v := baseVals()
	v["hot"]["decompose_s"] = scale(decS, 0.5)
	c := Compare(testSpec, mkResult(baseVals()), mkResult(v))
	if err := c.Gate(); err != nil {
		t.Fatalf("gate failed on improvement: %v", err)
	}
	var found bool
	for _, d := range c.Deltas {
		found = found || (d.Workload == "hot" && d.Metric == "decompose_s" && d.Improvement)
	}
	if !found {
		t.Errorf("improvement not reported: %+v", c.Deltas)
	}
}

// TestCompareSizeFloor: each end-to-end metric's bound is its size floor,
// in its own direction. Significant changes within the bound pass; the
// same direction past it fails.
func TestCompareSizeFloor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		metric string
		f      float64
		fails  bool
	}{
		{"time +10% within 25%", "decompose_s", 1.10, false},
		{"time +40% past 25%", "decompose_s", 1.40, true},
		{"fit -1% within 2%", "fit", 0.99, false},
		{"fit -5% past 2%", "fit", 0.95, true},
		{"fit +5% is better", "fit", 1.05, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := baseVals()
			v["hot"][tc.metric] = scale(v["hot"][tc.metric], tc.f)
			c := Compare(testSpec, mkResult(baseVals()), mkResult(v))
			for _, d := range c.Deltas {
				if d.Workload == "hot" && d.Metric == tc.metric && d.P >= alpha {
					t.Fatalf("disjoint samples not significant: %+v", d)
				}
			}
			if err := c.Gate(); (err != nil) != tc.fails {
				t.Errorf("gate error = %v, want failure %v", err, tc.fails)
			}
		})
	}
}

// A workload missing from the current run, a report whose checks failed,
// a larger failed share, other seeds than the baseline's, or too few seeds
// to ever be significant each fail the gate on their own.
func TestCompareMissingScenarioFailsGate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(r *Result)
		wants string
	}{
		{"missing workload", func(r *Result) {
			var keep []Run
			for _, run := range r.Runs {
				if run.Workload != "cold" {
					keep = append(keep, run)
				}
			}
			r.Runs = keep
		}, "cold: present in baseline but missing from current run"},
		{"incorrect report", func(r *Result) {
			r.run("cold", 2, 0).Report = Report{Attempted: 3}
		}, "cold: 1 of 10 reports not correct"},
		{"higher failed share", func(r *Result) {
			r.run("cold", 2, 1).Report.Failed = 1
		}, "cold: failed share"},
		{"missing end-to-end metric", func(r *Result) {
			for i := range r.Runs {
				delete(r.Runs[i].Report.Metrics, "fit")
			}
		}, "hot: fit missing from current run"},
		{"one seed, decompose_s ×2", func(r *Result) {
			var keep []Run
			for _, run := range r.Runs {
				if run.Seed == 1 {
					if v, ok := run.Report.Metrics["decompose_s"]; ok {
						run.Report.Metrics["decompose_s"] = Metric{Value: 2 * v.Value}
					}
					keep = append(keep, run)
				}
			}
			r.Runs, r.Seeds = keep, []int64{1}
		}, "hot: decompose_s has 5 baseline and 1 current values, too few to ever differ at p < 0.05"},
		{"other seeds", func(r *Result) {
			for i := range r.Runs {
				r.Runs[i].Seed += 5
			}
			r.Seeds = []int64{6, 7, 8, 9, 10}
		}, "current seeds [6 7 8 9 10] differ from baseline seeds [1 2 3 4 5]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := mkResult(baseVals())
			tc.edit(cur)
			err := Compare(testSpec, mkResult(baseVals()), cur).Gate()
			if err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Errorf("gate error = %v, want one naming %q", err, tc.wants)
			}
		})
	}
}

func TestCompareEnvMismatchFlagged(t *testing.T) {
	base := mkResult(baseVals())
	cur := mkResult(baseVals())
	cur.Env.CPUs = base.Env.CPUs + 1
	c := Compare(testSpec, base, cur)
	if c.EnvComparable {
		t.Error("differing CPU counts reported comparable")
	}
	var b strings.Builder
	c.WriteTable(&b)
	if !strings.Contains(b.String(), "warning") {
		t.Errorf("table missing env warning:\n%s", b.String())
	}
}

// TestGateSoundBothWays holds the committed BENCHMARK.json to the gate
// rule: for every declared end-to-end metric, worsening its median past
// its bound, in the metric's own direction, fails the gate naming it, and
// the same move the other way passes.
func TestGateSoundBothWays(t *testing.T) {
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []float64{1, 1.01, 0.99, 1.02, 0.98}
	mk := func(metric string, f float64) *Result {
		r := &Result{Format: FormatVersion, Seeds: []int64{1, 2, 3, 4, 5}}
		for i, s := range seeds {
			run := r.run(spec.Workloads[0].Name, int64(i+1), 0)
			for _, m := range spec.EndToEnd {
				v := s
				if m.Name == metric {
					v *= f
				}
				run.Report.Metrics[m.Name] = Metric{Value: v}
			}
		}
		return r
	}
	for _, m := range spec.EndToEnd {
		worse := 1 + 2*m.Bound
		if m.Better == "higher" {
			worse = 1 - 2*m.Bound
		}
		base := mk("", 1)
		err := Compare(spec, base, mk(m.Name, worse)).Gate()
		if err == nil || !strings.Contains(err.Error(), m.Name) {
			t.Errorf("%s (better %s) worsened ×%g: gate error %v", m.Name, m.Better, worse, err)
		}
		if err := Compare(spec, base, mk(m.Name, 2-worse)).Gate(); err != nil {
			t.Errorf("%s (better %s) improved ×%g: %v", m.Name, m.Better, 2-worse, err)
		}
	}
}

// TestRegistry reads the committed BENCHMARK.json, the registry of what is
// benchmarked, and holds LoadSpec to refusing a declaration the gate
// cannot use.
func TestRegistry(t *testing.T) {
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "memo-zipf4,dist-order5" || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Errorf("workloads %v, %d end-to-end and %d per-layer metrics", names, len(spec.EndToEnd), len(spec.PerLayer))
	}
	if strings.Join(spec.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %q", spec.Command)
	}
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	for name, data := range map[string]string{
		"not json":          `{`,
		"no command":        `{"workloads":[{"name":"w"}]}`,
		"no workloads":      `{"command":["b"],"end_to_end":[{"name":"m","better":"lower","bound":0.1}]}`,
		"repeated workload": `{"command":["b"],"workloads":[{"name":"w"},{"name":"w"}]}`,
		"bad direction":     `{"command":["b"],"workloads":[{"name":"w"}],"per_layer":[{"name":"m","better":"up"}]}`,
		"no bound":          `{"command":["b"],"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"lower"}]}`,
	} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpec(path); err == nil {
			t.Errorf("%s: LoadSpec accepted %s", name, data)
		}
	}
}
