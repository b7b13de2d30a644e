// Package boot is the observability bootstrap of the command-line tools:
// the CPU profile and runtime trace, the span tracer behind a Chrome
// trace-event file, the debug server with its runtime metrics and resource
// sampler, and the model-audit ledger with its recorder. A tool starts one
// Session from its flags and closes it on every exit.
package boot

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"syscall"

	"adatm/internal/audit"
	"adatm/internal/obs"
	"adatm/internal/par"
)

// Config names the outputs a run asked for; an empty field is off.
type Config struct {
	Name string    // the tool's name, prefixed to diagnostics
	Log  io.Writer // announcements and diagnostics (nil: os.Stderr)

	CPUProfile   string // -pprof: CPU profile file
	RuntimeTrace string // -runtimetrace: Go runtime execution trace file
	// TraceFile (-tracefile) collects spans, chunk spans included, and
	// writes them as Chrome trace-event JSON when the session closes.
	TraceFile string
	Workers   int // names tracer tracks 1..Workers (<= 0: GOMAXPROCS)
	// Listen (-listen) serves /metrics (with the runtime series), /healthz,
	// /run, /plan, /timeseries, /debug/pprof and /debug/vars.
	Listen string
	// AuditFile (-auditfile) is the decision ledger, opened for appending,
	// so one file accumulates the history of many runs.
	AuditFile string
	// Audit, when non-nil, asks for a recorder even without AuditFile. Its
	// Ledger, Metrics and OnUpdate are filled in here. With AuditFile alone
	// the recorder has the zero configuration.
	Audit *audit.Config
}

// Session is what Start brought up. Every field is nil when its output was
// not asked for.
type Session struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	Server  *obs.Server
	Sampler *obs.Sampler
	// Ledger is the open AuditFile, for writers that build their own
	// recorders.
	Ledger io.Writer
	Audit  *audit.Recorder

	cfg    Config
	log    io.Writer
	stops  []func() // profile and trace stops, in start order
	ledger *os.File
	closed bool
}

// Start brings up every output cfg asks for. On error, whatever it had
// already started is stopped again.
func Start(cfg Config) (*Session, error) {
	s := &Session{cfg: cfg, log: cfg.Log}
	if s.log == nil {
		s.log = os.Stderr
	}
	if err := s.start(); err != nil {
		s.shut()
		return nil, err
	}
	return s, nil
}

func (s *Session) start() error {
	cfg := s.cfg
	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		s.stops = append(s.stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if cfg.RuntimeTrace != "" {
		f, err := os.Create(cfg.RuntimeTrace)
		if err != nil {
			return err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return err
		}
		s.stops = append(s.stops, func() { trace.Stop(); f.Close() })
	}
	if cfg.TraceFile != "" {
		s.Tracer = obs.NewTracer(0)
		s.Tracer.SetTrackName(0, "main")
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		for i := 1; i <= w; i++ {
			s.Tracer.SetTrackName(int32(i), fmt.Sprintf("worker %d", i))
		}
		par.SetChunkTracer(s.Tracer)
	}
	if cfg.Listen != "" {
		s.Metrics = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(s.Metrics)
		srv, err := obs.Serve(cfg.Listen, s.Metrics)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		s.Server = srv
		s.Metrics.PublishExpvar("adatm")
		// The background resource sampler behind /timeseries: heap, GC
		// pauses and goroutine count over the session's lifetime.
		s.Sampler = obs.NewSampler(0, 0)
		s.Sampler.Start()
		srv.SetSampler(s.Sampler)
		fmt.Fprintf(s.log, "debug server listening on http://%s\n", srv.Addr())
	}
	if cfg.AuditFile != "" {
		f, err := os.OpenFile(cfg.AuditFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("auditfile: %w", err)
		}
		s.ledger, s.Ledger = f, f
	}
	if cfg.Audit != nil || cfg.AuditFile != "" {
		var acfg audit.Config
		if cfg.Audit != nil {
			acfg = *cfg.Audit
		}
		acfg.Ledger, acfg.Metrics = s.Ledger, s.Metrics
		if srv := s.Server; srv != nil {
			acfg.OnUpdate = func(rec audit.Record) { srv.SetPlan(rec) }
		}
		s.Audit = audit.NewRecorder(acfg)
	}
	return nil
}

// Close ends the session on any exit, failed runs included (they are the
// ones worth tracing): it writes the trace file and stops the profiles;
// then, with hold, it keeps the debug server up until SIGINT or SIGTERM;
// then it stops the sampler and the server and closes the ledger. Pass
// hold false on a failed run, so scripted runs do not hang. Only the first
// call acts; a nil Session is valid.
func (s *Session) Close(hold bool) {
	if s == nil || s.closed {
		return
	}
	s.closed = true
	if s.Tracer != nil {
		par.SetChunkTracer(nil)
		if err := writeTrace(s.cfg.TraceFile, s.Tracer); err != nil {
			fmt.Fprintf(s.log, "%s: trace export: %v\n", s.cfg.Name, err)
		} else {
			fmt.Fprintf(s.log, "wrote %d trace events to %s (load in Perfetto)\n", s.Tracer.Len(), s.cfg.TraceFile)
		}
	}
	s.stopProfiles()
	if hold && s.Server != nil {
		fmt.Fprintf(s.log, "%s finished; holding debug server on http://%s (interrupt to exit)\n", s.cfg.Name, s.Server.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		signal.Stop(ch)
	}
	s.shut()
}

func (s *Session) stopProfiles() {
	for _, stop := range s.stops {
		stop()
	}
	s.stops = nil
}

// shut stops and closes everything Start brought up; it writes no trace.
func (s *Session) shut() {
	s.stopProfiles()
	if s.Tracer != nil {
		par.SetChunkTracer(nil)
	}
	// The sampler stops after any hold, so /timeseries keeps sampling while
	// the server is held.
	s.Sampler.Stop()
	if s.Server != nil {
		s.Server.Close()
	}
	if s.ledger != nil {
		s.ledger.Close()
	}
}

func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
