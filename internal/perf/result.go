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
	"adatm/internal/obs"
)

// FormatVersion identifies the on-disk bench result format. Bump only with a
// reader that still accepts every older version; the comparison layer
// refuses mismatched formats rather than silently comparing apples to
// renamed oranges.
const FormatVersion = "adatm-bench/v1"

// Env is the environment fingerprint stamped into every suite result: the
// facts that make two measurements comparable (or explain why they aren't).
// Comparing results across differing fingerprints is allowed but flagged by
// Compare, because a CPU or GOMAXPROCS change is the most common benign
// explanation for a wholesale shift.
type Env struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUModel  string `json:"cpu_model,omitempty"`
	CPUs      int    `json:"cpus"`
	MaxProcs  int    `json:"maxprocs"`
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
		MaxProcs:  runtime.GOMAXPROCS(0),
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
// equivalent environments (same hardware class and parallel width).
func (e Env) Comparable(o Env) bool {
	return e.OS == o.OS && e.Arch == o.Arch && e.CPUModel == o.CPUModel &&
		e.CPUs == o.CPUs && e.MaxProcs == o.MaxProcs
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

// Sample is one repeated-sample measurement of a scenario: wall time plus
// the allocation and engine work counters over the same window, so a slow
// sample can be attributed (did it do more work, allocate more, or just run
// slower?).
type Sample struct {
	// StartUnixNano anchors the sample on the suite's resource timeline.
	StartUnixNano int64 `json:"t"`
	// NS is the wall time of one scenario unit (one MTTKRP sweep, or one
	// fixed-iteration CP-ALS fit).
	NS int64 `json:"ns"`
	// Allocs and Bytes are the heap allocation deltas over the sample.
	Allocs int64 `json:"allocs"`
	Bytes  int64 `json:"bytes"`
	// HadamardOps and MTTKRPCalls are the engine work-counter deltas: the
	// machine-independent op count that must stay constant across commits
	// for ns deltas to mean anything.
	HadamardOps int64 `json:"hadamard_ops"`
	MTTKRPCalls int64 `json:"mttkrp_calls"`
}

// ScenarioResult is one scenario's sample set plus its robust summary.
type ScenarioResult struct {
	Name    string   `json:"name"`
	Samples []Sample `json:"samples"`
	Summary Summary  `json:"summary"`
}

// SuiteResult is one suite run: the versioned envelope written to disk.
type SuiteResult struct {
	Format    string           `json:"format"`
	UnixSec   int64            `json:"unix_sec"`
	Env       Env              `json:"env"`
	Samples   int              `json:"samples_per_scenario"`
	Warmup    int              `json:"warmup_per_scenario"`
	Quick     bool             `json:"quick,omitempty"`
	Scenarios []ScenarioResult `json:"scenarios"`
	// Timeline is the suite-wide resource timeline recorded while the
	// samples ran; each Sample's StartUnixNano indexes into it, so a noisy
	// sample can be explained post hoc (GC cycle, goroutine spike).
	Timeline []obs.ResourceSample `json:"timeline,omitempty"`
}

// Scenario returns the named scenario result, or nil.
func (r *SuiteResult) Scenario(name string) *ScenarioResult {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// Validate checks the structural invariants of a loaded result.
func (r *SuiteResult) Validate() error {
	if r.Format != FormatVersion {
		return fmt.Errorf("perf: result format %q, want %q", r.Format, FormatVersion)
	}
	if len(r.Scenarios) == 0 {
		return fmt.Errorf("perf: result has no scenarios")
	}
	seen := make(map[string]bool, len(r.Scenarios))
	for _, sc := range r.Scenarios {
		if sc.Name == "" {
			return fmt.Errorf("perf: scenario with empty name")
		}
		if seen[sc.Name] {
			return fmt.Errorf("perf: duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		if len(sc.Samples) == 0 {
			return fmt.Errorf("perf: scenario %q has no samples", sc.Name)
		}
		for i, s := range sc.Samples {
			if s.NS <= 0 {
				return fmt.Errorf("perf: scenario %q sample %d has non-positive ns", sc.Name, i)
			}
		}
	}
	return nil
}

// nsSamples extracts the wall-time sample vector for the stats layer.
func (sc *ScenarioResult) nsSamples() []float64 {
	out := make([]float64, len(sc.Samples))
	for i, s := range sc.Samples {
		out[i] = float64(s.NS)
	}
	return out
}

// WriteJSON renders the result as indented JSON.
func (r *SuiteResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile persists the result crash-atomically (temp file + fsync +
// rename via the ckpt atomic writer), so an interrupted bench run can never
// truncate a previously committed baseline.
func WriteFile(path string, r *SuiteResult) error {
	if err := r.Validate(); err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, r.WriteJSON)
}

// LoadFile reads and validates a result file.
func LoadFile(path string) (*SuiteResult, error) {
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
func Decode(data []byte) (*SuiteResult, error) {
	var r SuiteResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
