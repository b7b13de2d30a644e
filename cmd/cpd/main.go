// Command cpd computes a sparse CP decomposition of a FROSTT-format tensor.
//
// Usage:
//
//	cpd -in tensor.tns -rank 16                      # adaptive engine
//	cpd -in tensor.tns -rank 16 -engine csf          # pick a kernel
//	cpd -in tensor.tns -rank 16 -budget 512MiB       # cap memoization memory
//	cpd -in tensor.tns -rank 16 -out factors         # write factors_mode<k>.txt
//	cpd -in tensor.tns -plan                         # print the model's plan only
//	cpd -in tensor.tns -rank 16 -checkpoint ck       # crash-safe checkpoints
//	cpd -in tensor.tns -rank 16 -checkpoint ck -resume   # continue a killed run
//	cpd -in tensor.tns -rank 16 -procs 4             # sharded over 4 simulated processes
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adatm"
	"adatm/internal/boot"
)

func main() {
	var (
		in         = flag.String("in", "", "input tensor (.tns or .tns.gz), required")
		rank       = flag.Int("rank", 16, "decomposition rank")
		iters      = flag.Int("iters", 50, "maximum ALS iterations")
		tol        = flag.Float64("tol", 1e-5, "fit-change convergence tolerance")
		seed       = flag.Int64("seed", 1, "factor initialization seed")
		workers    = flag.Int("workers", 0, "parallel width (0 = GOMAXPROCS)")
		engName    = flag.String("engine", "adaptive", "engine: coo, csf, csf-one, hicoo, memo-flat, memo-2group, memo-balanced, adaptive")
		budget     = flag.String("budget", "", "memory budget for the adaptive engine, e.g. 512MiB, 2GiB")
		outPfx     = flag.String("out", "", "write factor matrices to <out>_mode<k>.txt and lambda to <out>_lambda.txt")
		plan       = flag.Bool("plan", false, "print the model-driven plan and exit")
		fittrace   = flag.Bool("fittrace", false, "print the fit after every iteration")
		jsonOut    = flag.Bool("json", false, "emit a JSON run report (with per-phase breakdown) to stdout")
		pprofOut   = flag.String("pprof", "", "write a CPU profile to this file")
		rtTrace    = flag.String("runtimetrace", "", "write a Go runtime execution trace to this file")
		tracefile  = flag.String("tracefile", "", "write a Chrome trace-event JSON of CP-ALS spans (load in Perfetto)")
		listen     = flag.String("listen", "", "serve /metrics, /healthz, /run, /plan, /debug/pprof on this address (e.g. :9090)")
		hold       = flag.Bool("hold", false, "with -listen: keep the debug server up after the run until interrupted")
		auditRun   = flag.Bool("audit", false, "reconcile the cost model's predictions against the measured run and print the table (adaptive engine)")
		auditFile  = flag.String("auditfile", "", "append the model-audit decision ledger (JSONL) to this file")
		logJSON    = flag.Bool("logjson", false, "emit structured JSON log events (model selection, reconciliation) to stderr")
		logFile    = flag.String("logfile", "", "write structured JSON log events to this file instead of stderr")
		healthRun  = flag.Bool("health", false, "track per-iteration numerical health (swamp/stall/conditioning) and print the final verdict (standard CP-ALS only)")
		healthFile = flag.String("healthfile", "", "write the per-iteration health history (JSONL, /iters schema) to this file")
		timeout    = flag.Duration("timeout", 0, "cancel the run after this duration (0 = none)")
		progress   = flag.Bool("progress", false, "print per-iteration progress to stderr")
		ridge      = flag.Float64("ridge", 0, "Tikhonov regularization weight")
		nonneg     = flag.Bool("nonneg", false, "constrain factors to be non-negative")
		modelPath  = flag.String("model", "", "write the fitted model (lambda + factors) to this JSON file")
		procs      = flag.Int("procs", 1, "simulated process count; > 1 runs the distributed sharded solver")
		partition  = flag.String("partition", "auto", "with -procs > 1: nonzero partitioner: auto (model decides), random, medium-grain, fine-greedy")
		transport  = flag.String("transport", "chan", "with -procs > 1: transport: chan (deterministic in-process), tcp (loopback TCP)")
		ckptDir    = flag.String("checkpoint", "", "write crash-safe checkpoints to this directory during the run (single-node CP-ALS only)")
		ckptEvery  = flag.String("ckpt-every", "1", "checkpoint cadence: an iteration count (e.g. 5) or a wall-clock duration (e.g. 30s)")
		ckptKeep   = flag.Int("ckpt-retain", 3, "rolling retention: keep this many newest checkpoints (0 = keep all)")
		resume     = flag.Bool("resume", false, "resume from the newest checkpoint in -checkpoint instead of starting fresh")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "cpd: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	budgetBytes, err := parseBytes(*budget)
	if err != nil {
		fatal(err)
	}
	obsst, err := setupObs(obsConfig{
		boot: boot.Config{
			Name: "cpd", CPUProfile: *pprofOut, RuntimeTrace: *rtTrace, TraceFile: *tracefile,
			Workers: *workers, Listen: *listen, AuditFile: *auditFile,
		},
		hold: *hold, audit: *auditRun, logJSON: *logJSON, logFile: *logFile,
		health: *healthRun, healthFile: *healthFile,
	})
	if err != nil {
		fatal(err)
	}
	// fatal() exits via os.Exit, skipping defers; route error exits through
	// finish so a failed run still writes its -tracefile and profiles and
	// closes -listen. The deferred call closes the paths that return early.
	fatalCleanup = func() { obsst.finish(*engName, *rank, nil) }
	defer obsst.finish(*engName, *rank, nil)
	x, err := adatm.Load(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %s\n", x)

	if *plan {
		if *procs > 1 {
			pp, err := adatm.PartitionPlanFor(x, *procs, *rank, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Print(pp)
			return
		}
		fmt.Print(adatm.PlanFor(x, *rank, budgetBytes))
		return
	}

	opt := adatm.Options{
		Rank: *rank, MaxIters: *iters, Tol: *tol, Seed: *seed, Workers: *workers,
		Engine: adatm.EngineKind(*engName), MemoryBudget: budgetBytes, TrackFit: *fittrace,
		Ridge: *ridge, NonNegative: *nonneg, CollectStats: *jsonOut,
		Procs: *procs, Partition: *partition, Transport: *transport,
	}
	obsst.options(&opt)
	if *ckptDir != "" {
		cfg := &adatm.CheckpointConfig{Dir: *ckptDir, Retain: *ckptKeep}
		if n, err := strconv.Atoi(*ckptEvery); err == nil {
			cfg.Every = n
		} else if d, err := time.ParseDuration(*ckptEvery); err == nil {
			cfg.Interval = d
		} else {
			fatal(fmt.Errorf("bad -ckpt-every %q: want an iteration count or a duration", *ckptEvery))
		}
		opt.Checkpoint = cfg
	} else if *resume {
		fatal(fmt.Errorf("-resume requires -checkpoint <dir>"))
	}
	ctx := context.Background()
	if *timeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, *timeout)
		defer cancel()
		ctx = tctx
	}
	if opt.Checkpoint != nil {
		// A SIGINT/SIGTERM cancels the run between mode updates; the solver
		// writes a final checkpoint of the last completed iteration before
		// returning, so an interrupted run loses at most one sweep.
		sctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		ctx = sctx
	}
	if ctx != context.Background() {
		opt.Ctx = ctx
	}
	if *progress {
		opt.Progress = func(s adatm.IterStats) bool {
			fmt.Fprintf(os.Stderr, "iter %3d  fit %.8f  Δ %.3g  elapsed %v\n",
				s.Iter, s.Fit, s.FitDelta, s.Elapsed.Round(time.Millisecond))
			return true
		}
	}
	opt.Progress = obsst.progress(*engName, *rank, opt.Progress)
	var res *adatm.Result
	var dres *adatm.DistResult // the sharded run's communication accounting
	switch {
	case *resume:
		res, err = adatm.Resume(x, opt)
	case *procs > 1:
		if dres, err = adatm.DecomposeDist(x, opt); dres != nil {
			res = &dres.Result
		}
	default:
		res, err = adatm.Decompose(x, opt)
	}
	if err != nil {
		if res != nil && res.Stopped {
			fmt.Fprintf(os.Stderr, "cpd: stopped early: %v\n", err)
		} else {
			fatal(err)
		}
	}
	auditRec := obsst.latestAudit()
	if *auditRun && auditRec == nil {
		fmt.Fprintln(os.Stderr, "cpd: -audit: no model decision recorded (auditing needs -engine adaptive without a strategy override)")
	}
	if *jsonOut {
		if err := writeReport(os.Stdout, *engName, *rank, res, auditRec, obsst.healthSummary()); err != nil {
			fatal(err)
		}
	} else {
		if *fittrace {
			for i, f := range res.FitTrace {
				fmt.Printf("iter %3d  fit %.8f\n", i+1, f)
			}
		}
		fmt.Printf("engine=%s rank=%d iters=%d converged=%v fit=%.6f\n", *engName, *rank, res.Iters, res.Converged, res.Fit)
		fmt.Printf("total=%v mttkrp=%v (%.0f%%)\n", res.TotalTime.Round(1e6), res.MTTKRPTime.Round(1e6),
			100*float64(res.MTTKRPTime)/float64(res.TotalTime))
		if dres != nil {
			fmt.Printf("dist procs=%d partition=%s transport=%s volume=%dB/iter messages=%d retries=%d\n",
				*procs, *partition, *transport, dres.Comm.VolumeBytes(*rank), dres.Messages, dres.Retries)
		}
		fmt.Printf("lambda=%v\n", res.Lambda)
		if *healthRun {
			if s := obsst.healthSummary(); s != nil {
				fmt.Println(s)
			}
		}
		if *auditRun && auditRec != nil {
			fmt.Print(auditRec.String())
		}
	}

	if *modelPath != "" {
		if err := adatm.SaveModel(*modelPath, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote model to %s\n", *modelPath)
	}
	if *outPfx != "" {
		if err := writeVector(*outPfx+"_lambda.txt", res.Lambda); err != nil {
			fatal(err)
		}
		for m, f := range res.Factors {
			path := fmt.Sprintf("%s_mode%d.txt", *outPfx, m)
			if err := writeMatrix(path, f); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d factor files with prefix %s\n", len(res.Factors)+1, *outPfx)
	}
	obsst.finish(*engName, *rank, res)
}

// fatalCleanup flushes observability state (trace file, profiles, debug
// server) before a fatal exit; main replaces it as each subsystem comes up.
var fatalCleanup func()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpd:", err)
	if fatalCleanup != nil {
		fatalCleanup()
	}
	os.Exit(1)
}

// runReport is the -json output schema.
type runReport struct {
	Engine    string `json:"engine"`
	Rank      int    `json:"rank"`
	Iters     int    `json:"iters"`
	Converged bool   `json:"converged"`
	Stopped   bool   `json:"stopped"`
	// Fit is omitted when the run stopped before its first fit computation
	// (Result.Fit is NaN there, which JSON cannot carry).
	Fit        *float64        `json:"fit,omitempty"`
	TotalNS    int64           `json:"total_ns"`
	MTTKRPNS   int64           `json:"mttkrp_ns"`
	Lambda     []float64       `json:"lambda"`
	FitTrace   []float64       `json:"fit_trace,omitempty"`
	Stats      *adatm.RunStats `json:"stats,omitempty"`
	PhaseSumNS int64           `json:"phase_sum_ns,omitempty"`
	// Audit is the model-audit decision and reconciliation of an audited
	// adaptive run (-audit/-auditfile/-listen with -engine adaptive).
	Audit *adatm.AuditRecord `json:"audit,omitempty"`
	// Health is the final numerical-health verdict of a -health run.
	Health *adatm.HealthSummary `json:"health,omitempty"`
}

func writeReport(w *os.File, engName string, rank int, res *adatm.Result, auditRec *adatm.AuditRecord, healthSum *adatm.HealthSummary) error {
	rep := runReport{
		Engine:    engName,
		Rank:      rank,
		Iters:     res.Iters,
		Converged: res.Converged,
		Stopped:   res.Stopped,
		Fit:       finiteFitPtr(res.Fit),
		TotalNS:   res.TotalTime.Nanoseconds(),
		MTTKRPNS:  res.MTTKRPTime.Nanoseconds(),
		Lambda:    res.Lambda,
		FitTrace:  res.FitTrace,
		Stats:     res.Stats,
		Audit:     auditRec,
		Health:    healthSum,
	}
	if res.Stats != nil {
		rep.PhaseSumNS = res.Stats.PhaseTimeSum().Nanoseconds()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parseBytes parses "512MiB"/"2GiB"/"1048576" into a byte count.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	up := strings.ToUpper(s)
	for suffix, m := range map[string]int64{"KIB": 1 << 10, "MIB": 1 << 20, "GIB": 1 << 30, "KB": 1000, "MB": 1e6, "GB": 1e9} {
		if strings.HasSuffix(up, suffix) {
			mult = m
			s = s[:len(s)-len(suffix)]
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad budget %q: %v", s, err)
	}
	return int64(v * float64(mult)), nil
}

func writeVector(path string, v []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, x := range v {
		fmt.Fprintf(w, "%.17g\n", x)
	}
	return w.Flush()
}

func writeMatrix(path string, m *adatm.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range row {
			if j > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "%.17g", x)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
