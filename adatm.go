// Package adatm is the public API of the library: model-driven sparse
// CANDECOMP/PARAFAC (CP) decomposition for higher-order tensors.
//
// The library reproduces the system of "Model-Driven Sparse CP Decomposition
// for Higher-Order Tensors" (IPDPS 2017): CP-ALS whose MTTKRP bottleneck is
// served by memoized semi-sparse intermediate tensors arranged in a strategy
// tree, with an analytical cost model that picks the best strategy for a
// given tensor, rank, and memory budget. Classic baselines (streaming COO
// and SPLATT-style CSF) are included for comparison.
//
// Quick start:
//
//	x, _ := adatm.Load("data.tns")
//	res, _ := adatm.Decompose(x, adatm.Options{Rank: 16})
//	fmt.Println(res.Fit, res.Lambda)
//
// See examples/ for complete programs.
package adatm

import (
	"context"
	"fmt"

	"adatm/internal/accum"
	"adatm/internal/audit"
	"adatm/internal/ckpt"
	"adatm/internal/coo"
	"adatm/internal/cpd"
	"adatm/internal/csf"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/health"
	"adatm/internal/hicoo"
	"adatm/internal/memo"
	"adatm/internal/model"
	"adatm/internal/obs"
	"adatm/internal/tensor"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Tensor is a sparse tensor in coordinate format.
	Tensor = tensor.COO
	// Index is the integer type of tensor mode indices.
	Index = tensor.Index
	// Matrix is a dense row-major matrix (factor matrices, MTTKRP outputs).
	Matrix = dense.Matrix
	// Result is a computed CP decomposition with run statistics.
	Result = cpd.Result
	// Engine is a pluggable MTTKRP kernel.
	Engine = engine.Engine
	// EngineStats carries an engine's operation and memory counters.
	EngineStats = engine.Stats
	// Strategy is a memoization tree over the tensor modes, in the mode
	// order its root names (Strategy.Modes; nil is the natural order).
	Strategy = memo.Strategy
	// Plan is the cost model's scored candidate list and chosen strategy.
	Plan = model.Plan
	// GenSpec describes a synthetic tensor for the built-in generators.
	GenSpec = tensor.GenSpec
	// RunStats is the per-phase breakdown attached to a Result when
	// Options.CollectStats is set.
	RunStats = cpd.RunStats
	// PhaseStats accumulates one phase's time/count/ops over a run.
	PhaseStats = cpd.PhaseStats
	// Phase identifies one stage of the CP-ALS loop.
	Phase = cpd.Phase
	// IterStats is the per-iteration snapshot handed to Options.Progress.
	IterStats = cpd.IterStats
	// Tracer records timing spans into a bounded ring and exports them as a
	// Chrome trace-event file (load in Perfetto or chrome://tracing). A nil
	// Tracer is valid and records nothing.
	Tracer = obs.Tracer
	// Metrics is a registry of counters, gauges, and histograms exposed in
	// Prometheus text format. A nil Metrics is valid and records nothing.
	Metrics = obs.Registry
	// MetricLabels is the label set attached to a metric series.
	MetricLabels = obs.Labels
	// DebugServer is the live HTTP debug endpoint (/metrics, /healthz,
	// /debug/pprof/*, /run, /plan, /timeseries, /iters).
	DebugServer = obs.Server
	// AuditRecorder records the cost model's selection decision and
	// reconciles it against the run's measured counters (the model-audit
	// layer). A nil recorder is valid and free.
	AuditRecorder = audit.Recorder
	// AuditConfig parameterizes NewAuditRecorder (logger, JSONL ledger,
	// metrics registry, update hook).
	AuditConfig = audit.Config
	// AuditDecision is one recorded selection decision.
	AuditDecision = audit.Decision
	// AuditReport is the reconciliation of a decision against measurements.
	AuditReport = audit.Report
	// AuditRecord is a decision plus its reconciliation (the ledger entry
	// and the /plan payload).
	AuditRecord = audit.Record
	// AuditMeasured carries a run's measured counters for reconciliation.
	AuditMeasured = audit.Measured
	// CheckpointConfig enables periodic crash-safe checkpoints of a run
	// (directory, cadence, rolling retention). Attach via
	// Options.Checkpoint; resume with Resume.
	CheckpointConfig = cpd.CheckpointConfig
	// AuditEvent is a run-lifecycle entry in the audit ledger (e.g. a
	// checkpoint resume), alongside decisions and reports.
	AuditEvent = audit.Event
	// HealthProbe observes each ALS iteration's numerical state (fit delta,
	// λ dynamics, Gram-Hadamard conditioning, factor congruence) and keeps a
	// debounced healthy/stalled/swamp-suspect/ill-conditioned verdict. A
	// nil probe is valid and free. Attach via Options.Health.
	HealthProbe = health.Probe
	// HealthConfig parameterizes NewHealthProbe (its sinks).
	HealthConfig = health.Config
	// HealthState is the probe's typed verdict.
	HealthState = health.State
	// HealthSummary is the probe's end-of-run verdict and aggregates.
	HealthSummary = health.Summary
	// IterLog is the bounded ring of per-iteration health samples served at
	// the debug server's /iters endpoint.
	IterLog = obs.IterLog
	// IterSample is one iteration's record in an IterLog.
	IterSample = obs.IterSample
)

// Health verdicts, in increasing order of severity.
const (
	HealthHealthy        = health.Healthy
	HealthStalled        = health.Stalled
	HealthSwampSuspect   = health.SwampSuspect
	HealthIllConditioned = health.IllConditioned
)

// Re-exported phase identifiers for reading RunStats.Phases.
const (
	PhaseSymbolic  = cpd.PhaseSymbolic
	PhaseMTTKRP    = cpd.PhaseMTTKRP
	PhaseGram      = cpd.PhaseGram
	PhaseSolve     = cpd.PhaseSolve
	PhaseNormalize = cpd.PhaseNormalize
	PhaseFit       = cpd.PhaseFit
	NumPhases      = cpd.NumPhases
)

// SaveModel writes a decomposition (λ + factors) to a portable JSON file.
func SaveModel(path string, res *Result) error { return cpd.SaveModel(path, res) }

// LoadModel reads a decomposition written by SaveModel (λ and factors only;
// run statistics are not persisted).
func LoadModel(path string) (*Result, error) { return cpd.LoadModel(path) }

// NVecsInit computes HOSVD-style initial factors (the leading Rank left
// singular vectors of each matricization, by matricization-free block power
// iteration) for use as Options.Init — the literature-standard alternative
// to random initialization.
func NVecsInit(x *Tensor, rank, iters int, seed int64, workers int) []*Matrix {
	return cpd.NVecsInit(x, rank, iters, seed, workers)
}

// EngineKind selects the MTTKRP kernel used by Decompose.
type EngineKind string

const (
	// EngineCOO is the element-streaming coordinate-format baseline.
	EngineCOO EngineKind = "coo"
	// EngineCSF is the SPLATT-equivalent compressed-sparse-fiber baseline
	// (one tree per mode, root kernels only).
	EngineCSF EngineKind = "csf"
	// EngineCSFOne is the memory-lean single-tree CSF variant: one tree
	// serves every mode through level kernels (push-down/pull-up).
	EngineCSFOne EngineKind = "csf-one"
	// EngineHiCOO is the blocked-COO baseline (HiCOO-style): block
	// coordinates stored once, 1-byte element offsets inside 128-wide
	// blocks.
	EngineHiCOO EngineKind = "hicoo"
	// EngineMemoFlat memoizes with the flat (no-reuse, index-compressed)
	// strategy.
	EngineMemoFlat EngineKind = "memo-flat"
	// EngineMemoTwoGroup memoizes with the two-group (3-level) strategy
	// split at N/2.
	EngineMemoTwoGroup EngineKind = "memo-2group"
	// EngineMemoBalanced memoizes with the balanced binary strategy.
	EngineMemoBalanced EngineKind = "memo-balanced"
	// EngineAdaptive runs the cost model and uses its chosen strategy —
	// the paper's headline configuration.
	EngineAdaptive EngineKind = "adaptive"
)

// EngineKinds lists every selectable engine, in the canonical report order.
func EngineKinds() []EngineKind {
	return []EngineKind{EngineCOO, EngineCSF, EngineCSFOne, EngineHiCOO, EngineMemoFlat, EngineMemoTwoGroup, EngineMemoBalanced, EngineAdaptive}
}

// Options configures every CP-ALS run: Decompose on one node or, with
// Procs > 1, sharded.
type Options struct {
	// Rank is the number of rank-one components (required).
	Rank int
	// MaxIters bounds the ALS iterations (default 50).
	MaxIters int
	// Tol is the convergence threshold on the fit change (default 1e-5).
	Tol float64
	// Seed drives the random factor initialization.
	Seed int64
	// Workers is the parallel width (<= 0: GOMAXPROCS), per process in a
	// sharded run.
	Workers int
	// Engine selects the MTTKRP kernel (default EngineAdaptive; a sharded
	// run's shards default to EngineCOO, see DecomposeDist).
	Engine EngineKind
	// MemoryBudget caps the adaptive engine's predicted auxiliary bytes
	// (<= 0: unbounded), per process in a sharded run. See
	// EngineConfig.MemoryBudget for its effect on the other engines.
	MemoryBudget int64
	// TrackFit retains the per-iteration fit trajectory in the result.
	TrackFit bool
	// Init supplies initial factor matrices (one I_n × Rank per mode);
	// nil selects random initialization.
	Init []*Matrix
	// Ridge adds Tikhonov regularization λ·I to every factor update.
	Ridge float64
	// NonNegative constrains every factor entry to be non-negative
	// (multiplicative updates); requires a non-negative tensor.
	NonNegative bool
	// ModeOrder sets the ALS sub-iteration order (a permutation of the
	// modes; nil = natural). A memo engine whose strategy has a mode
	// order computes each intermediate once per iteration only when this
	// matches Strategy.SweepOrder (DecomposePermuted sets it).
	ModeOrder []int
	// Ctx, when non-nil, cancels the run between mode sub-iterations; the
	// partial Result is returned with ctx's error.
	Ctx context.Context
	// Progress is invoked after every completed iteration, the converging
	// one included; returning false stops the run early with a valid
	// Result (a converging iteration still ends the run converged). A
	// sharded run calls it on process 0, and every process stops with it.
	Progress func(IterStats) bool
	// CollectStats attaches a per-phase RunStats breakdown to the Result.
	CollectStats bool
	// Tracer, when non-nil, records phase and per-mode MTTKRP spans for
	// Chrome-trace export. Engines built by Decompose on one node are
	// instrumented automatically; with DecomposeWith, call Instrument
	// yourself.
	Tracer *Tracer
	// Metrics, when non-nil, receives the run's counters, gauges, and
	// latency histograms for /metrics scraping.
	Metrics *Metrics
	// Audit, when non-nil, receives the cost model's selection decision
	// (when the adaptive engine runs the model) and, at run end, the
	// reconciliation of that decision against the measured counters; a
	// sharded run records its partition decision instead. Build one with
	// NewAuditRecorder.
	Audit *AuditRecorder
	// Checkpoint, when non-nil, writes crash-safe checkpoints during the
	// run (atomic temp-file+rename protocol, rolling retention). A killed
	// run restarts from the newest checkpoint with Resume. A sharded run
	// refuses it.
	Checkpoint *CheckpointConfig
	// Health, when non-nil, observes every iteration's numerical state and
	// maintains a debounced convergence-health verdict (swamp/stall/
	// conditioning detection) fanned out to the probe's configured sinks.
	// Build one with NewHealthProbe.
	Health *HealthProbe
	// Procs is the simulated process count: above 1, Decompose runs
	// sharded (see DecomposeDist, which also takes <= 0 as 2).
	Procs int
	// Partition picks a sharded run's nonzero partitioner: PartitionAuto
	// (default, model-driven), PartitionRandom, PartitionMediumGrain, or
	// PartitionFineGreedy.
	Partition string
	// Transport picks a sharded run's wire: TransportChan (default) or
	// TransportTCP.
	Transport string
	// Fault, when non-nil, enables fault injection on the TCP transport.
	Fault *DistFault
}

// Decompose computes a rank-R CP decomposition of x, sharded over
// opt.Procs processes when Procs > 1 (DecomposeDist also returns the
// sharded run's communication accounting).
func Decompose(x *Tensor, opt Options) (*Result, error) {
	if opt.Procs > 1 {
		dres, err := DecomposeDist(x, opt)
		if err != nil {
			return nil, err
		}
		return &dres.Result, nil
	}
	eng, err := engineFor(x, opt)
	if err != nil {
		return nil, err
	}
	return DecomposeWith(x, eng, opt)
}

// engineFor builds, audits, and instruments the engine Decompose (and
// Resume) would use for opt.
func engineFor(x *Tensor, opt Options) (Engine, error) {
	kind := opt.Engine
	if kind == "" {
		kind = EngineAdaptive
	}
	eng, plan, err := NewEnginePlanned(x, kind, EngineConfig{Rank: opt.Rank, Workers: opt.Workers, MemoryBudget: opt.MemoryBudget})
	if err != nil {
		return nil, err
	}
	observe(eng, plan, opt)
	return eng, nil
}

// observe records plan (when the model ran) with opt.Audit and instruments
// eng with opt's tracer and metrics.
func observe(eng Engine, plan *Plan, opt Options) {
	if opt.Audit != nil && plan != nil {
		opt.Audit.RecordDecision(audit.NewDecision(plan))
	}
	Instrument(eng, opt.Tracer, opt.Metrics)
}

// cpdOptions translates the public Options into the solver's.
func cpdOptions(opt Options) cpd.Options {
	return cpd.Options{
		Rank:         opt.Rank,
		MaxIters:     opt.MaxIters,
		Tol:          opt.Tol,
		Seed:         opt.Seed,
		Workers:      opt.Workers,
		Init:         opt.Init,
		TrackFit:     opt.TrackFit,
		Ridge:        opt.Ridge,
		NonNegative:  opt.NonNegative,
		ModeOrder:    opt.ModeOrder,
		Ctx:          opt.Ctx,
		Progress:     opt.Progress,
		CollectStats: opt.CollectStats,
		Tracer:       opt.Tracer,
		Metrics:      opt.Metrics,
		Audit:        opt.Audit,
		Checkpoint:   opt.Checkpoint,
		Health:       opt.Health,
	}
}

// DecomposeWith runs CP-ALS with a caller-provided engine (for custom
// strategies or instrumentation), on one node.
func DecomposeWith(x *Tensor, eng Engine, opt Options) (*Result, error) {
	if err := oneNode("DecomposeWith", opt); err != nil {
		return nil, err
	}
	return cpd.Run(x, eng, cpdOptions(opt))
}

// oneNode refuses Procs > 1 on an entry point that only runs on one node,
// rather than quietly running unsharded.
func oneNode(entry string, opt Options) error {
	if opt.Procs > 1 {
		return fmt.Errorf("adatm: %s runs on one node only, not Procs = %d", entry, opt.Procs)
	}
	return nil
}

// Resume restarts an interrupted checkpointed run from the newest valid
// checkpoint in opt.Checkpoint.Dir. The tensor and the
// trajectory-determining options (rank, ridge, constraints, mode order)
// must match the checkpointed run — a fingerprint mismatch is refused.
// The run continues exactly where it stopped: a resumed run reaches the
// same fit as an uninterrupted one. A sharded run cannot resume.
func Resume(x *Tensor, opt Options) (*Result, error) {
	if err := oneNode("Resume", opt); err != nil {
		return nil, err
	}
	if opt.Checkpoint == nil || opt.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("adatm: Resume requires Options.Checkpoint.Dir")
	}
	mgr, err := ckpt.NewManager(opt.Checkpoint.Dir, opt.Checkpoint.Retain)
	if err != nil {
		return nil, err
	}
	c, path, err := mgr.LoadLatest()
	if err != nil {
		return nil, fmt.Errorf("adatm: resume: %w", err)
	}
	if opt.Audit != nil {
		opt.Audit.RecordEvent(audit.Event{Kind: "resume.load", Iter: c.Iter, Path: path, Fingerprint: c.Fingerprint})
	}
	eng, err := engineFor(x, opt)
	if err != nil {
		return nil, err
	}
	return cpd.Resume(x, eng, c, cpdOptions(opt))
}

// NewHealthProbe builds a numerical-health probe over the configured sinks
// (all optional): metrics registry, audit-ledger recorder, and iteration
// log. Attach it via Options.Health; read the verdict back with its Summary
// method or any of the sinks.
func NewHealthProbe(cfg HealthConfig) *HealthProbe { return health.New(cfg) }

// NewIterLog builds a ring buffer for per-iteration health samples
// (capacity <= 0 selects the default of 1024). Wire it into a HealthConfig
// and serve it live with DebugServer.SetIterLog (the /iters endpoint).
func NewIterLog(capacity int) *IterLog { return obs.NewIterLog(capacity) }

// NewAuditRecorder builds a model-audit recorder over the configured sinks
// (all optional): structured logger, JSONL decision ledger, metrics registry,
// and an update hook. Attach it via Options.Audit; read the outcome back with
// its Latest method or any of the sinks.
func NewAuditRecorder(cfg AuditConfig) *AuditRecorder { return audit.NewRecorder(cfg) }

// Instrument attaches a tracer and/or metrics registry to an engine that
// supports it (all built-in engines do). Engines constructed inside
// Decompose are instrumented automatically from Options; use this with
// NewEngine + DecomposeWith. Both arguments may be nil. Call once per
// engine: metric registration is idempotent per (name, labels) series, but
// repeated calls with different registries only keep the first wiring for
// callback-based gauges.
func Instrument(eng Engine, tr *Tracer, reg *Metrics) {
	if tr == nil && reg == nil {
		return
	}
	if in, ok := eng.(engine.Instrumentable); ok {
		in.Instrument(tr, reg)
	}
}

// NewTracer builds a span tracer holding up to capacity completed spans
// (capacity <= 0 selects the default of 65536). Attach it via
// Options.Tracer and write the collected trace with WriteChromeTrace.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewMetrics builds an empty metrics registry. Attach it via
// Options.Metrics, serve it with ServeDebug, or render it with WriteTo.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// ServeDebug starts the HTTP debug server on addr (e.g. ":9090" or
// "127.0.0.1:0") serving /metrics from reg, /healthz, /run, and
// /debug/pprof/*. Close the returned server to stop it.
func ServeDebug(addr string, reg *Metrics) (*DebugServer, error) {
	return obs.Serve(addr, reg)
}

// EngineConfig parameterizes NewEngine.
type EngineConfig struct {
	// Rank the engine will be used at (the adaptive model needs it; other
	// engines ignore it). <= 0 defaults to 16.
	Rank int
	// Workers is the engine's parallel width (<= 0: GOMAXPROCS).
	Workers int
	// MemoryBudget caps the adaptive choice (<= 0: unbounded). It also
	// decides whether the memo engines keep their intermediates allocated
	// across sweeps, and whether the children of the root stream their
	// reduction: the adaptive model decides each when its bytes fit; memo
	// engines built without the model retain and stream only when
	// unbounded.
	MemoryBudget int64
	// Strategy overrides the memoization tree for the memo engines; nil
	// uses the kind's default shape.
	Strategy *Strategy
	// accumPerMode carries the adaptive plan's resolved per-mode table to
	// the engine constructor (internal plumbing, set by NewEnginePlanned).
	accumPerMode []accum.Strategy
	// retain carries the memo engines' buffer-retention decision (internal
	// plumbing, set by NewEnginePlanned): the plan's when the model runs,
	// otherwise retention exactly when the budget is unbounded.
	retain bool
	// stream carries the memo engines' root-streaming decision the same
	// way (the plan's Stream, otherwise exactly when unbounded).
	stream bool
}

// NewEngine constructs the MTTKRP kernel of the given kind for x. The
// tensor is validated first: every engine's builder indexes by the declared
// dims, so a malformed tensor must be rejected here rather than panic
// deep inside a kernel.
func NewEngine(x *Tensor, kind EngineKind, cfg EngineConfig) (Engine, error) {
	eng, _, err := NewEnginePlanned(x, kind, cfg)
	return eng, err
}

// NewEnginePlanned is NewEngine plus the selection evidence: when the
// adaptive kind actually runs the cost model (no explicit Strategy
// override), the scored Plan is returned alongside the engine so callers can
// audit the decision (see Options.Audit). Every other path returns a nil
// Plan.
func NewEnginePlanned(x *Tensor, kind EngineKind, cfg EngineConfig) (Engine, *Plan, error) {
	if err := checkTensor(x); err != nil {
		return nil, nil, err
	}
	n := x.Order()
	acfg := accum.Config{Workers: cfg.Workers, Budget: cfg.MemoryBudget}
	cfg.retain = cfg.MemoryBudget <= 0
	cfg.stream = cfg.MemoryBudget <= 0
	switch kind {
	case EngineCOO:
		return coo.NewWithAccum(x, cfg.Workers, acfg), nil, nil
	case EngineCSF:
		return csf.NewAllMode(x, cfg.Workers), nil, nil
	case EngineCSFOne:
		return csf.NewSingle(x, cfg.Workers), nil, nil
	case EngineHiCOO:
		return hicoo.NewWithAccum(x, cfg.Workers, acfg), nil, nil
	case EngineMemoFlat:
		eng, err := memoEngine(x, cfg, memo.Flat(n), string(kind))
		return eng, nil, err
	case EngineMemoTwoGroup:
		if n < 2 {
			return nil, nil, fmt.Errorf("adatm: %s needs order >= 2", kind)
		}
		eng, err := memoEngine(x, cfg, memo.TwoGroup(n, n/2), string(kind))
		return eng, nil, err
	case EngineMemoBalanced:
		eng, err := memoEngine(x, cfg, memo.Balanced(n), string(kind))
		return eng, nil, err
	case EngineAdaptive:
		if cfg.Strategy != nil {
			eng, err := memoEngine(x, cfg, cfg.Strategy, string(kind))
			return eng, nil, err
		}
		plan := model.Select(x, model.Options{Rank: cfg.Rank, Budget: cfg.MemoryBudget, Workers: cfg.Workers})
		eng, err := plannedEngine(x, cfg, plan)
		if err != nil {
			return nil, nil, err
		}
		return eng, plan, nil
	default:
		return nil, nil, fmt.Errorf("adatm: unknown engine kind %q", kind)
	}
}

// checkTensor rejects a nil or malformed tensor.
func checkTensor(x *Tensor) error {
	if x == nil {
		return fmt.Errorf("adatm: nil tensor")
	}
	if err := x.Validate(); err != nil {
		return fmt.Errorf("adatm: %w", err)
	}
	return nil
}

// plannedEngine builds the memoized engine plan chose, in the chosen
// strategy's mode order. The plan resolved the accumulation backend per
// mode (budget slack already accounted for), whether to retain the
// intermediates and whether to stream the root children; they go to the
// engine so kernel entries don't re-derive them.
func plannedEngine(x *Tensor, cfg EngineConfig, plan *Plan) (Engine, error) {
	cfg.accumPerMode = plan.AccumPerMode()
	cfg.retain = plan.Retain
	cfg.stream = plan.Stream
	return memoEngine(x, cfg, plan.Chosen.Strategy, fmt.Sprintf("adaptive[%s]", plan.Chosen.Name))
}

func memoEngine(x *Tensor, cfg EngineConfig, s *Strategy, name string) (Engine, error) {
	if cfg.Strategy != nil {
		s = cfg.Strategy
	}
	return memo.NewWithConfig(x, s, memo.Config{
		Workers: cfg.Workers, Name: name, RetainBuffers: cfg.retain, StreamRoot: cfg.stream,
		Accum: accum.Config{PerMode: cfg.accumPerMode, Workers: cfg.Workers, Budget: cfg.MemoryBudget},
	})
}

// PlanFor runs the model-driven selection for x at the given rank and
// memory budget and returns the scored plan (call Plan.String for a report).
func PlanFor(x *Tensor, rank int, budget int64) *Plan {
	return model.Select(x, model.Options{Rank: rank, Budget: budget})
}

// PlanPermutedFor extends PlanFor over candidate mode orders, unlocking
// strategies that group non-adjacent modes. The chosen strategy carries its
// order (Strategy.SweepOrder); candidates are named "<order>/<tree>".
func PlanPermutedFor(x *Tensor, rank int, budget int64) *Plan {
	return model.SelectPermuted(x, model.Options{Rank: rank, Budget: budget}, nil)
}

// DecomposePermuted is Decompose with order-aware adaptive selection: it
// picks the best (mode order, strategy) pair, builds the adaptive engine
// for that plan exactly as Decompose does for a natural-order one, and
// sweeps the modes in the chosen order, on one node. opt.Engine and
// opt.ModeOrder are ignored.
func DecomposePermuted(x *Tensor, opt Options) (*Result, error) {
	if err := oneNode("DecomposePermuted", opt); err != nil {
		return nil, err
	}
	if err := checkTensor(x); err != nil {
		return nil, err
	}
	plan := model.SelectPermuted(x, model.Options{Rank: opt.Rank, Budget: opt.MemoryBudget, Workers: opt.Workers}, nil)
	eng, err := plannedEngine(x, EngineConfig{Rank: opt.Rank, Workers: opt.Workers, MemoryBudget: opt.MemoryBudget}, plan)
	if err != nil {
		return nil, err
	}
	observe(eng, plan, opt)
	opt.ModeOrder = plan.Chosen.Strategy.SweepOrder()
	return DecomposeWith(x, eng, opt)
}

// Load reads a tensor from a FROSTT .tns or .tns.gz file, merging duplicate
// coordinates and validating the result: a tensor returned by Load is
// structurally sound (consistent arities, in-range indices, finite values).
func Load(path string) (*Tensor, error) {
	x, err := tensor.LoadFile(path)
	if err != nil {
		return nil, err
	}
	x.Dedup()
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("adatm: %s: %w", path, err)
	}
	return x, nil
}

// Save writes a tensor to a .tns or .tns.gz file.
func Save(path string, x *Tensor) error { return tensor.SaveFile(path, x) }

// Generate builds a synthetic tensor from a generator spec; see GenSpec and
// Profiles.
func Generate(spec GenSpec) *Tensor { return tensor.Generate(spec) }

// Profiles lists the built-in synthetic dataset profiles mirroring the
// shapes of the common evaluation tensors.
func Profiles() []GenSpec { return tensor.Profiles }

// Profile returns the named built-in generator spec.
func Profile(name string) (GenSpec, error) { return tensor.Profile(name) }

// Reconstruct evaluates the decomposition at one coordinate.
func Reconstruct(res *Result, idx []Index) float64 { return cpd.Reconstruct(res, idx) }
