package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"time"

	"adatm"
	"adatm/internal/boot"
)

// obsConfig collects the observability flags of one CLI run.
type obsConfig struct {
	boot       boot.Config // -pprof, -runtimetrace, -tracefile, -listen, -auditfile
	hold       bool        // -hold: keep the server up after the run
	audit      bool        // -audit: print the reconciliation table
	logJSON    bool        // -logjson: structured JSON log events to stderr
	logFile    string      // -logfile: structured JSON log events to this file
	health     bool        // -health: numerical-health probe + final verdict
	healthFile string      // -healthfile: per-iteration health history (JSONL)
}

// wantAudit reports whether the run needs a model-audit recorder: any audit
// or logging flag, or a debug server (which serves the decision at /plan and
// the adatm_model_* gauges at /metrics).
func (c obsConfig) wantAudit() bool {
	return c.audit || c.boot.AuditFile != "" || c.logJSON || c.logFile != "" || c.boot.Listen != ""
}

// wantHealth reports whether the run needs a numerical-health probe: either
// health flag, or a debug server (which serves the iteration stream at
// /iters and the adatm_health_* gauges at /metrics).
func (c obsConfig) wantHealth() bool {
	return c.health || c.healthFile != "" || c.boot.Listen != ""
}

// obsState is the observability wiring of one CLI run: the shared session
// (profiles, tracer, debug server, audit recorder) plus what only cpd has,
// the structured log, the health probe and the /run snapshot.
type obsState struct {
	*boot.Session
	logFile    *os.File
	health     *adatm.HealthProbe
	iterLog    *adatm.IterLog
	healthPath string
	hold       bool
	started    time.Time
	done       bool // finish already ran (it is called from both the normal exit and fatal)
}

// runSnapshot is the JSON payload served at /run, refreshed after every
// completed ALS iteration and finalized when the run ends.
type runSnapshot struct {
	Engine string `json:"engine"`
	Rank   int    `json:"rank"`
	Iter   int    `json:"iter"`
	// Fit is omitted (not zero) when no iteration ever computed one — a
	// NaN fit cannot be JSON-marshaled and a fake 0 would be misleading.
	Fit       *float64 `json:"fit,omitempty"`
	FitDelta  float64  `json:"fit_delta"`
	ElapsedMS int64    `json:"elapsed_ms"`
	MTTKRPMS  int64    `json:"mttkrp_ms"`
	Done      bool     `json:"done"`
	Converged bool     `json:"converged"`
	// Audit carries the model-audit decision and reconciliation in the final
	// snapshot of an audited run.
	Audit *adatm.AuditRecord `json:"audit,omitempty"`
	// Health carries the final numerical-health verdict of a -health run.
	Health *adatm.HealthSummary `json:"health,omitempty"`
}

// finiteFitPtr boxes a fit for JSON output, mapping NaN (a run stopped
// before its first fit computation) to nil/omitted — encoding/json cannot
// marshal NaN.
func finiteFitPtr(fit float64) *float64 {
	if math.IsNaN(fit) {
		return nil
	}
	return &fit
}

// setupObs starts the session and the health and logging sinks the flags
// ask for.
func setupObs(cfg obsConfig) (*obsState, error) {
	o := &obsState{hold: cfg.hold, healthPath: cfg.healthFile, started: time.Now()}
	if cfg.wantAudit() {
		acfg := &adatm.AuditConfig{}
		if cfg.logJSON || cfg.logFile != "" {
			dest := io.Writer(os.Stderr)
			if cfg.logFile != "" {
				f, err := os.Create(cfg.logFile)
				if err != nil {
					return nil, fmt.Errorf("logfile: %w", err)
				}
				o.logFile = f
				dest = f
			}
			acfg.Logger = slog.New(slog.NewJSONHandler(dest, nil))
		}
		cfg.boot.Audit = acfg
	}
	sess, err := boot.Start(cfg.boot)
	if err != nil {
		if o.logFile != nil {
			o.logFile.Close()
		}
		return nil, err
	}
	o.Session = sess
	if cfg.wantHealth() {
		// Built after the audit recorder so the probe's health.state events
		// land in the same ledger/log sinks as the model-audit records.
		o.iterLog = adatm.NewIterLog(0)
		o.health = adatm.NewHealthProbe(adatm.HealthConfig{
			Metrics: o.Metrics, Audit: o.Audit, Log: o.iterLog,
		})
		if o.Server != nil {
			o.Server.SetIterLog(o.iterLog)
		}
	}
	return o, nil
}

// options fills the Tracer/Metrics/Audit/Health fields of opt.
func (o *obsState) options(opt *adatm.Options) {
	opt.Tracer = o.Tracer
	opt.Metrics = o.Metrics
	opt.Audit = o.Audit
	opt.Health = o.health
}

// healthSummary returns the run's final health verdict, or nil when no
// probe was wired.
func (o *obsState) healthSummary() *adatm.HealthSummary {
	if o.health == nil {
		return nil
	}
	s := o.health.Summary()
	return &s
}

// latestAudit returns the run's audit record, or nil when no decision was
// recorded (no recorder, or a non-adaptive engine ran).
func (o *obsState) latestAudit() *adatm.AuditRecord {
	if o.Audit == nil {
		return nil
	}
	rec := o.Audit.Latest()
	if rec.Decision == nil {
		return nil
	}
	return &rec
}

// progress wraps the per-iteration callback so /run always serves a live
// snapshot, chaining to inner (which may be nil).
func (o *obsState) progress(engName string, rank int, inner func(adatm.IterStats) bool) func(adatm.IterStats) bool {
	if o.Server == nil {
		return inner
	}
	return func(s adatm.IterStats) bool {
		o.Server.SetRun(runSnapshot{
			Engine: engName, Rank: rank, Iter: s.Iter, Fit: finiteFitPtr(s.Fit), FitDelta: s.FitDelta,
			ElapsedMS: s.Elapsed.Milliseconds(), MTTKRPMS: s.MTTKRPTime.Milliseconds(),
		})
		if inner != nil {
			return inner(s)
		}
		return true
	}
}

// finish seals the iteration stream and writes -healthfile, publishes the
// final /run snapshot, and closes the session (trace file, -hold, server,
// ledger, profiles) and the log file. Idempotent. A nil result marks an
// error exit: the files are still written (failed runs are exactly the
// ones worth tracing) but -hold is skipped so scripted runs don't hang.
func (o *obsState) finish(engName string, rank int, res *adatm.Result) {
	if o == nil || o.done {
		return
	}
	o.done = true
	// Seal the iteration stream first so /iters?follow=1 clients terminate
	// (the snapshot stays served through any -hold window), then dump the
	// retained history to -healthfile — on error exits too, since a sick
	// run's trajectory is exactly what the file is for.
	o.iterLog.Close()
	if o.healthPath != "" && o.iterLog != nil {
		if err := writeIterLog(o.healthPath, o.iterLog); err != nil {
			fmt.Fprintln(os.Stderr, "cpd: healthfile:", err)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %d health samples to %s\n", o.iterLog.Seq(), o.healthPath)
		}
	}
	if o.Server != nil && res != nil {
		o.Server.SetRun(runSnapshot{
			Engine: engName, Rank: rank, Iter: res.Iters, Fit: finiteFitPtr(res.Fit),
			ElapsedMS: time.Since(o.started).Milliseconds(), MTTKRPMS: res.MTTKRPTime.Milliseconds(),
			Done: true, Converged: res.Converged,
			Audit:  o.latestAudit(),
			Health: o.healthSummary(),
		})
	}
	o.Close(o.hold && res != nil)
	if o.logFile != nil {
		o.logFile.Close()
	}
}

// writeIterLog dumps the retained iteration-health history as JSONL, one
// IterSample per line (the same schema the /iters stream serves).
func writeIterLog(path string, l *adatm.IterLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.Snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
