// Command perfgate runs the perf-trajectory suite and gates commits on
// statistical regressions against a committed baseline (DESIGN.md §2h).
//
// Usage:
//
//	perfgate run -out BENCH_8.json            # measure, write a baseline
//	perfgate compare -baseline A -current B   # print the delta table
//	perfgate gate -baseline BENCH_8.json      # fresh run vs baseline; exit 1 on regression
//	perfgate gate -self -quick -samples 1     # pipeline smoke: run once, compare to itself
//	perfgate list                             # print the scenario registry
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"adatm/internal/audit"
	"adatm/internal/boot"
	"adatm/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: perfgate <run|compare|gate|list> [flags]

  run      execute the benchmark suite and write a result file
  compare  print the delta table between two result files
  gate     fail (exit 1) when the current run regresses past the baseline
  list     print the scenario registry
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
		return runSuite(args[1:], stdout, stderr)
	case "compare":
		return runCompare(args[1:], stdout, stderr)
	case "gate":
		return runGate(args[1:], stdout, stderr)
	case "list":
		for _, n := range perf.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "perfgate: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
}

// suiteFlags are the measurement flags shared by `run` and `gate` (which may
// execute a fresh suite for the current side).
type suiteFlags struct {
	samples   int
	warmup    int
	quick     bool
	workers   int
	scenarios string
	listen    string
	auditfile string
	hold      bool
}

func (f *suiteFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.samples, "samples", 5, "measured samples per scenario")
	fs.IntVar(&f.warmup, "warmup", 1, "unmeasured warmup units per scenario")
	fs.BoolVar(&f.quick, "quick", false, "~8x smaller tensors, rank 8")
	fs.IntVar(&f.workers, "workers", 0, "engine parallel width (0 = GOMAXPROCS)")
	fs.StringVar(&f.scenarios, "scenarios", "", "comma-separated scenario names (default: full registry)")
	fs.StringVar(&f.listen, "listen", "", "serve /metrics and /timeseries on this address while the suite runs")
	fs.StringVar(&f.auditfile, "auditfile", "", "append perf.suite/perf.regression events to this JSONL ledger")
	fs.BoolVar(&f.hold, "hold", false, "keep the debug server up after the suite until interrupted")
}

// execute runs one suite under the configured observability sinks. The
// returned cleanup closes them, holding the debug server first with -hold.
func (f *suiteFlags) execute(stderr io.Writer) (*perf.SuiteResult, *audit.Recorder, func(), error) {
	scs, err := perf.Select(splitList(f.scenarios))
	if err != nil {
		return nil, nil, nil, err
	}
	sess, err := boot.Start(boot.Config{Name: "perfgate", Log: stderr, Listen: f.listen, AuditFile: f.auditfile})
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := perf.RunSuite(scs, perf.RunnerConfig{
		Samples: f.samples, Warmup: f.warmup, Quick: f.quick, Workers: f.workers, Log: stderr,
		Metrics: sess.Metrics, Sampler: sess.Sampler, Audit: sess.Audit,
	})
	if err != nil {
		sess.Close(false)
		return nil, nil, nil, err
	}
	// The sampler keeps running until cleanup; its timeline window for the
	// result was already captured by RunSuite.
	return res, sess.Audit, func() { sess.Close(f.hold) }, nil
}

func runSuite(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sf suiteFlags
	sf.register(fs)
	out := fs.String("out", "", "write the result JSON to this file (atomic temp+rename); default stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, _, cleanup, err := sf.execute(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	defer cleanup()
	if *out == "" {
		if err := res.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "perfgate:", err)
			return 1
		}
		return 0
	}
	if err := perf.WriteFile(*out, res); err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %d scenarios × %d samples to %s\n", len(res.Scenarios), res.Samples, *out)
	return 0
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "baseline result file")
	current := fs.String("current", "", "current result file")
	alpha := fs.Float64("alpha", 0.05, "Mann–Whitney significance level")
	minDelta := fs.Float64("min-delta", 5, "minimum median slowdown percent that can regress")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" || *current == "" {
		fmt.Fprintln(stderr, "perfgate compare: -baseline and -current are required")
		return 2
	}
	base, err := perf.LoadFile(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	cur, err := perf.LoadFile(*current)
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	perf.Compare(base, cur, perf.Thresholds{Alpha: *alpha, MinDeltaPct: *minDelta}).WriteTable(stdout)
	return 0
}

func runGate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate gate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sf suiteFlags
	sf.register(fs)
	baseline := fs.String("baseline", "", "baseline result file")
	current := fs.String("current", "", "current result file (default: run a fresh suite)")
	self := fs.Bool("self", false, "run one fresh suite and gate it against itself (pipeline smoke)")
	alpha := fs.Float64("alpha", 0.05, "Mann–Whitney significance level")
	minDelta := fs.Float64("min-delta", 5, "minimum median slowdown percent that can regress")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *self == (*baseline != "") {
		fmt.Fprintln(stderr, "perfgate gate: exactly one of -self or -baseline is required")
		return 2
	}

	var base, cur *perf.SuiteResult
	var rec *audit.Recorder
	cleanup := func() {}
	switch {
	case *self:
		res, r, cl, err := sf.execute(stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perfgate:", err)
			return 1
		}
		base, cur, rec, cleanup = res, res, r, cl
	default:
		var err error
		base, err = perf.LoadFile(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "perfgate:", err)
			return 1
		}
		if *current != "" {
			cur, err = perf.LoadFile(*current)
			if err != nil {
				fmt.Fprintln(stderr, "perfgate:", err)
				return 1
			}
		} else {
			// Gate the working tree: measure the scenarios the baseline holds.
			if sf.scenarios == "" {
				var names []string
				for _, sc := range base.Scenarios {
					names = append(names, sc.Name)
				}
				sf.scenarios = strings.Join(names, ",")
			}
			cur, rec, cleanup, err = sf.execute(stderr)
			if err != nil {
				fmt.Fprintln(stderr, "perfgate:", err)
				return 1
			}
		}
	}
	defer cleanup()

	cmp := perf.Compare(base, cur, perf.Thresholds{Alpha: *alpha, MinDeltaPct: *minDelta})
	cmp.WriteTable(stdout)
	if err := cmp.Gate(); err != nil {
		for _, d := range cmp.Regressions() {
			rec.RecordEvent(audit.Event{
				Kind:   "perf.regression",
				Detail: fmt.Sprintf("%s: +%.1f%% median (p=%.4g)", d.Scenario, d.DeltaPct, d.P),
			})
		}
		fmt.Fprintln(stderr, "perfgate:", err)
		return 1
	}
	fmt.Fprintln(stderr, "perfgate: gate passed")
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
