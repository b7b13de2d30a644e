// Command adabench runs the reproduction's experiment suite (DESIGN.md §3)
// and prints the paper-style tables.
//
// Usage:
//
//	adabench                 # run everything at full scale
//	adabench -quick          # ~8x smaller datasets
//	adabench -exp E3,E7      # run a subset
//	adabench -markdown       # emit markdown tables (for EXPERIMENTS.md)
//	adabench -rank 32        # override the default rank
//
// Performance over time is tracked by perfgate over perfbench, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"adatm"
	"adatm/internal/boot"
	"adatm/internal/exp"
	"adatm/internal/obs"
)

func main() {
	os.Exit(run())
}

// run carries the whole CLI so deferred profile/trace/server teardown fires
// before the process exits with a meaningful code.
func run() int {
	var (
		quick     = flag.Bool("quick", false, "run on ~8x smaller datasets")
		expList   = flag.String("exp", "", "comma-separated experiment ids (default: all); known: "+strings.Join(exp.IDs(), ","))
		markdown  = flag.Bool("markdown", false, "render tables as markdown")
		jsonOut   = flag.Bool("json", false, "render tables as JSON records")
		pprofOut  = flag.String("pprof", "", "write a CPU profile of the whole run to this file")
		rtTrace   = flag.String("runtimetrace", "", "write a runtime execution trace of the whole run to this file")
		tracefile = flag.String("tracefile", "", "write a Chrome trace-event JSON of the suite's spans (load in Perfetto)")
		listen    = flag.String("listen", "", "serve /metrics, /healthz, /run, /timeseries, /debug/pprof on this address while the suite runs")
		rank      = flag.Int("rank", 16, "CP rank for non-sweeping experiments")
		workers   = flag.Int("workers", 0, "parallel width (0 = GOMAXPROCS)")
		seed      = flag.Int64("seed", 0, "dataset seed offset")
		auditFile = flag.String("auditfile", "", "append the model-audit decision ledger (JSONL) from model experiments (E7) to this file")
		healthRun = flag.Bool("health", false, "attach a numerical-health probe to the full CP-ALS experiment runs (E2); with -listen, serves the shared iteration stream at /iters")
	)
	flag.Parse()
	sess, err := boot.Start(boot.Config{
		Name: "adabench", CPUProfile: *pprofOut, RuntimeTrace: *rtTrace, TraceFile: *tracefile,
		Workers: *workers, Listen: *listen, AuditFile: *auditFile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "adabench:", err)
		return 1
	}
	defer sess.Close(false)
	tracer, reg, srv := sess.Tracer, sess.Metrics, sess.Server

	cfg := exp.Config{Quick: *quick, Workers: *workers, Rank: *rank, Seed: *seed}
	if *healthRun {
		// One shared iteration stream for every probed run; the per-run
		// label tells the streams apart. With -listen it is served live at
		// /iters and the adatm_health_* gauges land in /metrics.
		iterLog := obs.NewIterLog(0)
		if srv != nil {
			srv.SetIterLog(iterLog)
		}
		defer iterLog.Close()
		cfg.Health = func(run string) *adatm.HealthProbe {
			return adatm.NewHealthProbe(adatm.HealthConfig{Run: run, Metrics: reg, Log: iterLog})
		}
	}
	cfg.AuditW = sess.Ledger
	runners := exp.Registry()
	if *expList != "" {
		runners = runners[:0]
		for _, id := range strings.Split(*expList, ",") {
			r := exp.Find(strings.TrimSpace(id))
			if r == nil {
				fmt.Fprintf(os.Stderr, "adabench: unknown experiment %q (known: %s)\n", id, strings.Join(exp.IDs(), ", "))
				return 2
			}
			runners = append(runners, *r)
		}
	}
	for _, r := range runners {
		start := time.Now()
		if srv != nil {
			srv.SetRun(map[string]any{"experiment": r.ID, "state": "running"})
		}
		sp := tracer.StartSpan("exp/"+r.ID, 0)
		table := r.Run(cfg)
		sp.End()
		if srv != nil {
			srv.SetRun(map[string]any{"experiment": r.ID, "state": "done", "elapsed_ms": time.Since(start).Milliseconds()})
		}
		switch {
		case *jsonOut:
			if err := table.JSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "adabench:", err)
				return 1
			}
		case *markdown:
			table.Markdown(os.Stdout)
		default:
			table.Render(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
