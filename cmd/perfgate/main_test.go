package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adatm/internal/perf"
)

// TestMain runs the tests in a scratch directory holding a copy of
// BENCHMARK.json whose command is this test binary: started with
// PERFGATE_FAKE set, it acts as fakePerfbench instead of running tests.
func TestMain(m *testing.M) {
	if mode, ok := os.LookupEnv("PERFGATE_FAKE"); ok {
		os.Exit(fakePerfbench(mode, os.Args[1:]))
	}
	dir, err := fakeSpecDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Under -race every exit of the fake would sleep a second
	// (GORACE atexit_sleep_ms defaults to 1000).
	os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// fakeSpecDir makes a temporary directory, writes there the repository's
// BENCHMARK.json with its command replaced by this test binary, and
// changes into it.
func fakeSpecDir() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(filepath.Join("..", "..", specFile))
	if err != nil {
		return "", err
	}
	var decl map[string]any
	if err := json.Unmarshal(data, &decl); err != nil {
		return "", err
	}
	decl["command"] = []string{self}
	if data, err = json.Marshal(decl); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp("", "perfgate-test")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, specFile), data, 0o644); err != nil {
		return dir, err
	}
	return dir, os.Chdir(dir)
}

// fakePerfbench prints a few progress lines and then a report, as
// perfbench does. Every metric BENCHMARK.json declares for the trace mode
// is 1 + seed/100, so seeds differ and reruns are identical. mode shapes
// the report:
//
//	ok         as described
//	slow       memo-zipf4: decompose_s ×1.5, cpd.solve_s ×1.8
//	fast       memo-zipf4: decompose_s ×0.5
//	incorrect  memo-zipf4: a report whose checks failed, with no metrics
//	flaky      dist-order5 seed 1: one of three runs failed
//	malformed  the last line is not a report
//	unknown    exit 2 as perfbench does for a workload it does not know
//
// With PERFGATE_FAKE_LOG set, it also appends its arguments to that file.
func fakePerfbench(mode string, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	seed := fs.Int64("seed", 0, "")
	fs.Float64("seconds", 0, "")
	trace := fs.Int("trace", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if log := os.Getenv("PERFGATE_FAKE_LOG"); log != "" {
		f, err := os.OpenFile(log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 1
		}
		fmt.Fprintln(f, strings.Join(args, " "))
		f.Close()
	}
	if mode == "unknown" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	spec, err := perf.LoadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("workload %s seed %d trace %v\nrun workload=%s seed=%d kind=untraced i=0\n", *workload, *seed, *trace == 1, *workload, *seed)
	if mode == "malformed" {
		fmt.Println(`{"correct": tru`)
		return 0
	}
	rep := perf.Report{Correct: true, Attempted: 3, Metrics: map[string]perf.Metric{}}
	metrics := spec.EndToEnd
	if *trace == 1 {
		metrics = spec.PerLayer
	}
	for _, m := range metrics {
		v := 1 + float64(*seed)/100
		switch {
		case mode == "slow" && *workload == "memo-zipf4" && m.Name == "decompose_s":
			v *= 1.5
		case mode == "slow" && *workload == "memo-zipf4" && m.Name == "cpd.solve_s":
			v *= 1.8
		case mode == "fast" && *workload == "memo-zipf4" && m.Name == "decompose_s":
			v *= 0.5
		}
		rep.Metrics[m.Name] = perf.Metric{Value: v}
	}
	switch {
	case mode == "incorrect" && *workload == "memo-zipf4":
		rep = perf.Report{Attempted: 3}
	case mode == "flaky" && *workload == "dist-order5" && *seed == 1 && *trace == 0:
		rep = perf.Report{Attempted: 3, Failed: 1}
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	return 0
}

// record runs `perfgate run` under the fake in mode and returns the path
// of the result file.
func record(t *testing.T, mode string, args ...string) string {
	t.Helper()
	t.Setenv("PERFGATE_FAKE", mode)
	path := filepath.Join(t.TempDir(), mode+".json")
	var out, errb bytes.Buffer
	if code := run(append([]string{"run", "-out", path}, args...), &out, &errb); code != 0 {
		t.Fatalf("run (%s): exit %d\nstderr: %s", mode, code, errb.String())
	}
	return path
}

func TestUsageAndList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	for _, sub := range []string{"run", "compare", "gate"} {
		if !strings.Contains(errb.String(), "\n  "+sub) {
			t.Errorf("usage does not list %s:\n%s", sub, errb.String())
		}
	}
	for _, args := range [][]string{{"bogus"}, {"list"}, {"compare", "-baseline", "x"}, {"gate"}, {"run", "-samples", "0"}, {"run", "-seconds", "1"}} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestRunWritesResultFile(t *testing.T) {
	path := record(t, "ok", "-samples", "5")
	res, err := perf.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 || res.Seeds[4] != 5 {
		t.Errorf("seeds %v; want 1..5", res.Seeds)
	}
	// One run per seed, trace mode and workload of BENCHMARK.json.
	if len(res.Runs) != 5*2*2 {
		t.Fatalf("%d runs, want 20", len(res.Runs))
	}
	if r := res.Runs[0]; r.Workload != "memo-zipf4" || r.Seed != 1 || r.Trace != 0 || !r.Report.Correct {
		t.Errorf("first run = %+v", r)
	}
}

// `run` without -out writes the result to stdout; a perfbench that fails
// or prints no report fails the run, naming the invocation.
func TestRunStdoutAndUnknownScenario(t *testing.T) {
	t.Setenv("PERFGATE_FAKE", "ok")
	var out, errb bytes.Buffer
	if code := run([]string{"run", "-samples", "1"}, &out, &errb); code != 0 {
		t.Fatalf("run to stdout: exit %d\nstderr: %s", code, errb.String())
	}
	if _, err := perf.Decode(out.Bytes()); err != nil {
		t.Fatalf("stdout is not a result: %v", err)
	}

	for mode, want := range map[string]string{
		"unknown":   `memo-zipf4 seed 1 trace 0: exit status 2`,
		"malformed": `memo-zipf4 seed 1 trace 0: last output line "{\"correct\": tru": perf: not a perfbench report`,
	} {
		t.Setenv("PERFGATE_FAKE", mode)
		errb.Reset()
		code := run([]string{"run", "-samples", "1"}, &out, &errb)
		if code != 1 || !strings.Contains(errb.String(), want) {
			t.Errorf("%s: exit %d, stderr %q; want 1 and %q", mode, code, errb.String(), want)
		}
	}
}

func TestGateSelfPasses(t *testing.T) {
	base := record(t, "ok")
	var out, errb bytes.Buffer
	if code := run([]string{"gate", "-baseline", base, "-current", base}, &out, &errb); code != 0 {
		t.Fatalf("gate against itself: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "gate passed") {
		t.Errorf("missing pass confirmation: %s", errb.String())
	}
}

// The gate re-measures the working tree against a baseline and fails on
// exactly the changes the pipeline rejects, naming the workload and, for a
// slowdown, the layer that moved.
func TestGateAgainstBaselineBothWays(t *testing.T) {
	base := record(t, "ok", "-samples", "5")
	for _, tc := range []struct {
		mode   string
		code   int
		wants  []string
		unwant []string
	}{
		{"ok", 0, []string{"gate passed"}, nil},
		{"slow", 1, []string{"memo-zipf4: decompose_s +50%", "layers: cpd.solve_s +80%"}, []string{"dist-order5"}},
		{"fast", 0, []string{"gate passed"}, nil},
		{"incorrect", 1, []string{"memo-zipf4: 10 of 10 reports not correct"}, []string{"dist-order5"}},
		{"flaky", 1, []string{"dist-order5: failed share 0.0333 > baseline 0"}, []string{"memo-zipf4"}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			t.Setenv("PERFGATE_FAKE", tc.mode)
			log := filepath.Join(t.TempDir(), "invocations")
			t.Setenv("PERFGATE_FAKE_LOG", log)
			var out, errb bytes.Buffer
			code := run([]string{"gate", "-baseline", base}, &out, &errb)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, out.String(), errb.String())
			}
			verdict := errb.String()[strings.LastIndex(errb.String(), "perfgate: "):]
			for _, w := range tc.wants {
				if !strings.Contains(verdict, w) {
					t.Errorf("verdict lacks %q:\n%s", w, verdict)
				}
			}
			for _, w := range tc.unwant {
				if strings.Contains(verdict, w) {
					t.Errorf("verdict names %q:\n%s", w, verdict)
				}
			}
			// The fresh side reran the baseline's seeds.
			data, err := os.ReadFile(log)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) != 20 || lines[19] != "--workload dist-order5 --seed 5 --seconds 0 --trace 1" {
				t.Errorf("%d invocations, last %q", len(lines), lines[len(lines)-1])
			}
		})
	}
}

func TestGateMissingScenarioFails(t *testing.T) {
	base := record(t, "ok")
	res, err := perf.LoadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var keep []perf.Run
	for _, r := range res.Runs {
		if r.Workload != "memo-zipf4" {
			keep = append(keep, r)
		}
	}
	res.Runs = keep
	cur := filepath.Join(t.TempDir(), "cur.json")
	if err := perf.WriteFile(cur, res); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"gate", "-baseline", base, "-current", cur}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "memo-zipf4: present in baseline but missing") {
		t.Errorf("gate with a workload dropped: exit %d\nstderr: %s", code, errb.String())
	}
}

func TestCompareFiles(t *testing.T) {
	base, slow := record(t, "ok"), record(t, "slow")
	var out, errb bytes.Buffer
	// compare prints the table and exits 0 even on a regression.
	if code := run([]string{"compare", "-baseline", base, "-current", slow}, &out, &errb); code != 0 {
		t.Fatalf("compare: exit %d\nstderr: %s", code, errb.String())
	}
	for _, want := range []string{"memo-zipf4", "decompose_s", "REGRESSION", "cpd.solve_s", "moved", "dist-order5"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
	if code := run([]string{"compare", "-baseline", base, "-current", filepath.Join(t.TempDir(), "none.json")}, &out, &errb); code != 1 {
		t.Errorf("missing current file: exit %d, want 1", code)
	}
}
