// Command perfgate drives the repository's benchmark, perfbench, over a
// seed set, records every run's report, and gates commits on statistical
// regressions against a committed baseline (DESIGN.md §2h). Run it from
// the repository root: it reads BENCHMARK.json there and starts the
// benchmark command it declares once per workload, seed and trace mode.
//
// Usage:
//
//	perfgate run -samples 6 -out BENCH_23.json             # measure, write a baseline
//	perfgate compare -baseline A -current B                # print the delta table
//	perfgate gate -baseline BENCH_23.json                  # re-measure the tree; exit 1 on regression
//	perfgate gate -baseline A -current B                   # gate two stored results
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"adatm/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// specFile is the benchmark declaration: the command, workloads, metric
// directions and bounds. perfgate reads it and never writes it.
const specFile = "BENCHMARK.json"

const usage = `usage: perfgate <run|compare|gate> [flags]

  run      run perfbench over the seed set and write a result file
  compare  print the delta table between two result files
  gate     fail (exit 1) when the current side regresses past the baseline
`

// run is the testable entry point: exit code 0 on success, 1 on a failed
// gate or runtime error, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch args[0] {
	case "run":
		return runBench(args[1:], stdout, stderr)
	case "compare", "gate":
		return runCompare(args[0], args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "perfgate: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	samples := fs.Int("samples", 6, "seeds per workload and trace mode (seeds 1..samples); 5 is the fewest that can ever show a significant change")
	out := fs.String("out", "", "write the result JSON to this file (atomic temp+rename); default stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *samples < 1 {
		fmt.Fprintln(stderr, "perfgate run: -samples must be positive")
		return 2
	}
	seeds := make([]int64, *samples)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	spec, err := perf.LoadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	res, err := measure(spec, seeds, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	if *out == "" {
		err = res.WriteJSON(stdout)
	} else if err = perf.WriteFile(*out, res); err == nil {
		fmt.Fprintf(stderr, "wrote %d runs to %s\n", len(res.Runs), *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	return 0
}

// measure runs perfbench once per seed, trace mode and workload, in that
// nesting, so slow drift of the host spreads over every workload's samples
// instead of biasing the one that ran last.
func measure(spec *perf.Spec, seeds []int64, stderr io.Writer) (*perf.Result, error) {
	res := &perf.Result{Format: perf.FormatVersion, UnixSec: time.Now().Unix(), Env: perf.Fingerprint(), Seeds: seeds}
	for _, seed := range seeds {
		for trace := 0; trace <= 1; trace++ {
			for _, w := range spec.Workloads {
				t0 := time.Now()
				rep, err := invoke(spec.Command, w.Name, seed, trace, stderr)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d trace %d: %w", w.Name, seed, trace, err)
				}
				fmt.Fprintf(stderr, "perfgate: %s seed %d trace %d: correct=%v failed %d of %d runs (%.1fs)\n",
					w.Name, seed, trace, rep.Correct, rep.Failed, rep.Attempted, time.Since(t0).Seconds())
				res.Runs = append(res.Runs, perf.Run{Workload: w.Name, Seed: seed, Trace: trace, Report: rep})
			}
		}
	}
	return res, nil
}

// invoke runs the benchmark command once, in its own process (so
// peak_rss_bytes is that invocation's), and parses the report on the last
// line of its output. Every invocation passes --seconds 0: perfbench's
// minimum of three measured runs, so the repetitions are the seeds.
func invoke(command []string, workload string, seed int64, trace int, stderr io.Writer) (perf.Report, error) {
	args := append(command[1:len(command):len(command)],
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", "0", "--trace", strconv.Itoa(trace))
	cmd := exec.Command(command[0], args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return perf.Report{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	rep, err := perf.ParseReport(last)
	if err != nil {
		return perf.Report{}, fmt.Errorf("last output line %.100q: %w", last, err)
	}
	return rep, nil
}

// runCompare is both compare, which prints the table, and gate, which also
// exits 1 on a failed verdict. Without -current, gate re-measures the
// working tree with the baseline's own seeds.
func runCompare(sub string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "baseline result file")
	current := fs.String("current", "", "current result file (gate default: measure the working tree)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" || (sub == "compare" && *current == "") {
		fmt.Fprintf(stderr, "perfgate %s: -baseline is required, and so is -current for compare\n", sub)
		return 2
	}
	spec, err := perf.LoadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	base, err := perf.LoadFile(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	var cur *perf.Result
	if *current != "" {
		cur, err = perf.LoadFile(*current)
	} else {
		cur, err = measure(spec, base.Seeds, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	cmp := perf.Compare(spec, base, cur)
	cmp.WriteTable(stdout)
	if sub == "compare" {
		return 0
	}
	if err := cmp.Gate(); err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	fmt.Fprintln(stderr, "perfgate: gate passed")
	return 0
}
