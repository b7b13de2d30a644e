package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"adatm/internal/ckpt"
)

// FormatVersion identifies the on-disk bench result format. Its runs are
// perfbench reports, so its names are the workload and metric names of
// BENCHMARK.json. The comparison layer refuses any other format rather than
// compare apples to renamed oranges.
const FormatVersion = "adatm-bench/v2"

// Env is the environment fingerprint stamped into every result: the facts
// that make two measurements comparable (or explain why they aren't).
// Comparing results across differing fingerprints is allowed but flagged by
// Compare, because a CPU change is the most common benign explanation for a
// wholesale shift.
type Env struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUModel  string `json:"cpu_model,omitempty"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	// Revision is the VCS revision of the binary when built from a checkout
	// ("unknown" under `go run` / `go test`, where build info has no VCS
	// stamp).
	Revision string `json:"revision"`
}

// Fingerprint captures the current process environment.
func Fingerprint() Env {
	e := Env{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUModel:  cpuModel(),
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Revision:  "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				e.Revision = s.Value
			}
		}
	}
	return e
}

// Comparable reports whether two fingerprints describe measurement-
// equivalent environments (same hardware class). GOMAXPROCS is not part of
// it: perfbench pins its own.
func (e Env) Comparable(o Env) bool {
	return e.OS == o.OS && e.Arch == o.Arch && e.CPUModel == o.CPUModel && e.CPUs == o.CPUs
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux); other
// platforms report "".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Metric is one named value of a perfbench report.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is what one perfbench invocation prints as its last line: whether
// every measured run passed its checks, how many ran and failed, and the
// metrics (the end-to-end ones untraced, the per-layer split traced; none
// when a check failed).
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// ParseReport decodes and validates one perfbench report line.
func ParseReport(line []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(line, &r); err != nil {
		return Report{}, fmt.Errorf("perf: not a perfbench report: %w", err)
	}
	if err := r.validate(); err != nil {
		return Report{}, err
	}
	return r, nil
}

func (r Report) validate() error {
	switch {
	case r.Attempted <= 0:
		return fmt.Errorf("perf: report attempted %d runs", r.Attempted)
	case r.Failed < 0 || r.Failed > r.Attempted:
		return fmt.Errorf("perf: report failed %d of %d runs", r.Failed, r.Attempted)
	case r.Correct && len(r.Metrics) == 0:
		return fmt.Errorf("perf: correct report has no metrics")
	}
	for name := range r.Metrics {
		if name == "" {
			return fmt.Errorf("perf: report metric with empty name")
		}
	}
	return nil
}

// Run is one perfbench invocation: workload, seed and trace mode (0 for
// the end-to-end metrics, 1 for the per-layer split) with its report.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Report   Report `json:"report"`
}

// Result is one `perfgate run`: the versioned envelope written to disk. It
// holds one Run per workload, seed and trace mode.
type Result struct {
	Format  string `json:"format"`
	UnixSec int64  `json:"unix_sec"`
	Env     Env    `json:"env"`
	// Seeds are the samples: every workload runs once per seed and trace
	// mode, each on its own generated tensor.
	Seeds []int64 `json:"seeds"`
	Runs  []Run   `json:"runs"`
}

// Validate checks the structural invariants of a loaded result.
func (r *Result) Validate() error {
	if r.Format != FormatVersion {
		return fmt.Errorf("perf: result format %q, want %q", r.Format, FormatVersion)
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("perf: result has no runs")
	}
	seeds := make(map[int64]bool, len(r.Seeds))
	for _, s := range r.Seeds {
		seeds[s] = true
	}
	type key struct {
		workload string
		seed     int64
		trace    int
	}
	seen := make(map[key]bool, len(r.Runs))
	for _, run := range r.Runs {
		k := key{run.Workload, run.Seed, run.Trace}
		switch {
		case run.Workload == "":
			return fmt.Errorf("perf: run with empty workload")
		case run.Trace != 0 && run.Trace != 1:
			return fmt.Errorf("perf: %s seed %d: trace mode %d", run.Workload, run.Seed, run.Trace)
		case !seeds[run.Seed]:
			return fmt.Errorf("perf: %s: seed %d is not among the result's seeds", run.Workload, run.Seed)
		case seen[k]:
			return fmt.Errorf("perf: duplicate run %s seed %d trace %d", run.Workload, run.Seed, run.Trace)
		}
		seen[k] = true
		if err := run.Report.validate(); err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", run.Workload, run.Seed, run.Trace, err)
		}
	}
	return nil
}

// WriteJSON renders the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile persists the result crash-atomically (temp file + fsync +
// rename via the ckpt atomic writer), so an interrupted bench run can never
// truncate a previously committed baseline.
func WriteFile(path string, r *Result) error {
	if err := r.Validate(); err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, r.WriteJSON)
}

// LoadFile reads and validates a result file.
func LoadFile(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return r, nil
}

// Decode parses and validates the bytes of a result file.
func Decode(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
