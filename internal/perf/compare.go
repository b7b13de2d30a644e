package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// alpha is the significance level of every verdict: a change counts only
// when the Mann–Whitney p-value is below it.
const alpha = 0.05

// layerMovePct is how far, in percent, a per-layer median must move
// (significantly) to be named in a failing workload's message.
const layerMovePct = 5

// Spec is what perfgate reads from BENCHMARK.json: the command that runs
// one benchmark invocation, the workloads, and each metric's direction and,
// end to end, its bound.
type Spec struct {
	// Command is the program and its leading arguments; perfgate appends
	// the workload, seed, seconds and trace mode.
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one declared metric.
type MetricSpec struct {
	Name string `json:"name"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the largest tolerated worsening of an end-to-end metric's
	// median, as a fraction of the baseline median.
	Bound float64 `json:"bound"`
}

// LoadSpec reads and checks a benchmark declaration.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if len(s.Command) == 0 || s.Command[0] == "" {
		return nil, fmt.Errorf("perf: %s declares no command", path)
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("perf: %s declares no workloads", path)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if w.Name == "" || seen[w.Name] {
			return nil, fmt.Errorf("perf: %s: workload name %q empty or repeated", path, w.Name)
		}
		seen[w.Name] = true
	}
	for i, ms := range [][]MetricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range ms {
			if m.Better != "lower" && m.Better != "higher" {
				return nil, fmt.Errorf("perf: %s: metric %q: better is %q", path, m.Name, m.Better)
			}
			if i == 0 && m.Bound <= 0 {
				return nil, fmt.Errorf("perf: %s: end-to-end metric %q has no bound", path, m.Name)
			}
		}
	}
	return &s, nil
}

// Delta is one metric of one workload, current against baseline.
type Delta struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	// Layer marks a per-layer metric (from the traced runs); the others are
	// end to end (from the untraced runs).
	Layer          bool    `json:"layer,omitempty"`
	BaselineMedian float64 `json:"baseline_median"`
	CurrentMedian  float64 `json:"current_median"`
	// DeltaPct is the median change in percent: positive = current larger.
	DeltaPct float64 `json:"delta_pct"`
	// P is the two-sided Mann–Whitney p-value over the per-seed values.
	P float64 `json:"p"`
	// Regression (end to end only): significant, and worse than the
	// baseline by more than the metric's bound.
	Regression bool `json:"regression"`
	// Improvement (end to end only): significant, and better by more than
	// the bound. Reported, never gated: a real win should refresh the
	// baseline.
	Improvement bool `json:"improvement"`
}

// moved reports a significant per-layer change larger than layerMovePct.
func (d Delta) moved() bool {
	return d.Layer && d.P < alpha && math.Abs(d.DeltaPct) > layerMovePct
}

// Comparison is the full verdict of Compare.
type Comparison struct {
	// EnvComparable is false when the two results carry fingerprints of
	// different hardware; deltas are then explanatory, not comparable.
	EnvComparable bool    `json:"env_comparable"`
	Deltas        []Delta `json:"deltas"`
	// Failures are the faults that fail the gate on their own: seeds that
	// differ from the baseline's, a workload missing from the current run,
	// a report whose checks failed, a larger failed share than the
	// baseline's, an end-to-end metric the current run lacks, or one with
	// too few values on either side to ever differ significantly.
	Failures []string `json:"failures,omitempty"`
}

// Compare joins baseline and current by workload and metric. Each side's
// samples of a metric are its values over the seeds: the untraced runs'
// for the end-to-end metrics, the traced runs' for the per-layer split.
// Both sides must have run the same seeds, so they measure the same
// generated tensors. Metrics the spec does not declare are not compared.
func Compare(spec *Spec, baseline, current *Result) *Comparison {
	c := &Comparison{EnvComparable: baseline.Env.Comparable(current.Env)}
	if !slices.Equal(baseline.Seeds, current.Seeds) {
		c.fail("current seeds %v differ from baseline seeds %v", current.Seeds, baseline.Seeds)
	}
	base, cur := byWorkload(baseline), byWorkload(current)
	for _, w := range workloads(baseline) {
		cr := cur[w]
		if len(cr) == 0 {
			c.fail("%s: present in baseline but missing from current run", w)
			continue
		}
		br := base[w]
		incorrect := 0
		for _, r := range cr {
			if !r.Report.Correct {
				incorrect++
			}
		}
		if incorrect > 0 {
			c.fail("%s: %d of %d reports not correct (a run failed its checks)", w, incorrect, len(cr))
		}
		if bs, cs := failedShare(br), failedShare(cr); cs > bs {
			c.fail("%s: failed share %.3g > baseline %.3g", w, cs, bs)
		}
		few := false // reported once per workload
		for _, m := range spec.EndToEnd {
			bv, cv := values(br, 0, m.Name), values(cr, 0, m.Name)
			if len(bv) == 0 {
				continue
			}
			if len(cv) == 0 {
				if incorrect == 0 {
					c.fail("%s: %s missing from current run", w, m.Name)
				}
				continue
			}
			if !few && !canDiffer(len(bv), len(cv)) {
				few = true
				c.fail("%s: %s has %d baseline and %d current values, too few to ever differ at p < %g",
					w, m.Name, len(bv), len(cv), alpha)
			}
			d := delta(w, m.Name, bv, cv)
			worse := d.DeltaPct / 100
			if m.Better == "higher" {
				worse = -worse
			}
			d.Regression = d.P < alpha && worse > m.Bound
			d.Improvement = d.P < alpha && -worse > m.Bound
			c.Deltas = append(c.Deltas, d)
		}
		for _, m := range spec.PerLayer {
			bv, cv := values(br, 1, m.Name), values(cr, 1, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			d := delta(w, m.Name, bv, cv)
			d.Layer = true
			c.Deltas = append(c.Deltas, d)
		}
	}
	return c
}

// canDiffer reports whether n and m values can differ significantly at
// all: whether two fully separated sets of those sizes reach p < alpha.
func canDiffer(n, m int) bool {
	xs := make([]float64, n+m)
	for i := range xs {
		xs[i] = float64(i)
	}
	_, p := MannWhitneyU(xs[:n], xs[n:])
	return p < alpha
}

func (c *Comparison) fail(format string, args ...any) {
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}

func delta(workload, metric string, bv, cv []float64) Delta {
	d := Delta{Workload: workload, Metric: metric, BaselineMedian: Median(bv), CurrentMedian: Median(cv)}
	if d.BaselineMedian != 0 {
		d.DeltaPct = (d.CurrentMedian - d.BaselineMedian) / math.Abs(d.BaselineMedian) * 100
	}
	_, d.P = MannWhitneyU(bv, cv)
	return d
}

// workloads lists r's workloads in the order they first appear.
func workloads(r *Result) []string {
	var out []string
	seen := map[string]bool{}
	for _, run := range r.Runs {
		if !seen[run.Workload] {
			seen[run.Workload] = true
			out = append(out, run.Workload)
		}
	}
	return out
}

func byWorkload(r *Result) map[string][]Run {
	m := map[string][]Run{}
	for _, run := range r.Runs {
		m[run.Workload] = append(m[run.Workload], run)
	}
	return m
}

// values collects one metric over the runs of one trace mode.
func values(runs []Run, trace int, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Report.Metrics[metric]; ok && r.Trace == trace {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(runs []Run) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Report.Failed
		attempted += r.Report.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// Gate returns nil when no workload failed, or an error with one line per
// failed workload: its regressed end-to-end metrics, then the per-layer
// metrics that moved, largest move first, which say where the time went.
// Workload-level failures follow.
func (c *Comparison) Gate() error {
	var lines []string
	for _, w := range c.deltaWorkloads() {
		var regs, layers []string
		var moved []Delta
		for _, d := range c.Deltas {
			switch {
			case d.Workload != w:
			case d.Regression:
				regs = append(regs, fmt.Sprintf("%s %+.0f%% (%.4g -> %.4g, p=%.2g)",
					d.Metric, d.DeltaPct, d.BaselineMedian, d.CurrentMedian, d.P))
			case d.moved():
				moved = append(moved, d)
			}
		}
		if len(regs) == 0 {
			continue
		}
		sort.SliceStable(moved, func(a, b int) bool { return math.Abs(moved[a].DeltaPct) > math.Abs(moved[b].DeltaPct) })
		for _, d := range moved {
			layers = append(layers, fmt.Sprintf("%s %+.0f%%", d.Metric, d.DeltaPct))
		}
		line := w + ": " + strings.Join(regs, ", ")
		if len(layers) > 0 {
			line += "; layers: " + strings.Join(layers, ", ")
		}
		lines = append(lines, line)
	}
	lines = append(lines, c.Failures...)
	if len(lines) == 0 {
		return nil
	}
	return fmt.Errorf("perf gate failed:\n  %s", strings.Join(lines, "\n  "))
}

// deltaWorkloads lists the workloads of c.Deltas in order.
func (c *Comparison) deltaWorkloads() []string {
	var out []string
	for i, d := range c.Deltas {
		if i == 0 || d.Workload != c.Deltas[i-1].Workload {
			out = append(out, d.Workload)
		}
	}
	return out
}

// WriteTable renders the comparison as an aligned human-readable table.
func (c *Comparison) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-34s %12s %12s %8s %8s  %s\n", "workload", "metric", "base median", "cur median", "delta", "p", "verdict")
	for _, d := range c.Deltas {
		verdict := "~"
		switch {
		case d.Regression:
			verdict = "REGRESSION"
		case d.Improvement:
			verdict = "improvement"
		case d.moved():
			verdict = "moved"
		case d.P < alpha:
			verdict = "significant (small)"
		}
		fmt.Fprintf(w, "%-12s %-34s %12.5g %12.5g %+7.1f%% %8.4f  %s\n",
			d.Workload, d.Metric, d.BaselineMedian, d.CurrentMedian, d.DeltaPct, d.P, verdict)
	}
	for _, f := range c.Failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	if !c.EnvComparable {
		fmt.Fprintln(w, "warning: environment fingerprints differ (hardware changed); deltas are explanatory, not comparable")
	}
}
