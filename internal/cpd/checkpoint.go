package cpd

import (
	"errors"
	"fmt"
	"time"

	"adatm/internal/audit"
	"adatm/internal/ckpt"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/tensor"
)

// CheckpointConfig enables durable, resumable state for a run: the loop
// snapshots its boundary state every iteration and atomically writes a
// checkpoint file whenever a trigger fires, keeping a rolling window of the
// newest files. A crash, OOM-kill, or SIGTERM then costs at most the work
// since the last write instead of the whole run; Resume continues from the
// newest checkpoint and reaches the same fit the uninterrupted run would
// have (bit-for-bit — the checkpoint captures the exact factor state and
// JSON float64 round-trips are exact).
type CheckpointConfig struct {
	// Dir is the checkpoint directory (required; created if absent).
	Dir string
	// Every writes a checkpoint after every N completed iterations.
	// When both Every and Interval are unset, Every defaults to 1.
	Every int
	// Interval writes a checkpoint when this much wall-clock time has
	// passed since the previous write (0 disables the wall-clock trigger).
	Interval time.Duration
	// Retain keeps the newest K checkpoint files (<= 0: ckpt.DefaultRetain).
	Retain int
	// fault arms deterministic write failures for crash-safety tests.
	fault *ckpt.Fault
}

// checkpointer is the observer that runs the checkpoint protocol. The
// boundary snapshot reuses its buffers, so steady-state iterations allocate
// only inside the periodic write itself.
type checkpointer struct {
	mgr       *ckpt.Manager
	every     int
	interval  time.Duration
	snap      ckpt.Checkpoint // the newest boundary state (Iter 0: none yet)
	written   int             // iteration of the last committed checkpoint
	lastWrite time.Time
}

// newCheckpointer builds the checkpointer for opt.Checkpoint. sweep is the
// resolved mode order, so the fingerprint is identical whether the caller
// passed nil or the explicit natural order; written is the iteration the
// newest checkpoint already holds (0 on a fresh run).
func newCheckpointer(x *tensor.COO, opt Options, sweep []int, written int) (*checkpointer, error) {
	cfg := opt.Checkpoint
	mgr, err := ckpt.NewManager(cfg.Dir, cfg.Retain)
	if err != nil {
		return nil, err
	}
	if cfg.fault != nil {
		mgr.SetFault(cfg.fault)
	}
	mgr.Instrument(opt.Metrics)
	every := cfg.Every
	if every <= 0 && cfg.Interval <= 0 {
		every = 1
	}
	c := &checkpointer{mgr: mgr, every: every, interval: cfg.Interval, written: written, lastWrite: time.Now()}
	c.snap.Seed = opt.Seed
	c.snap.Fingerprint = fingerprintFor(x, opt, sweep)
	return c, nil
}

// fingerprintFor hashes the tensor plus the trajectory-determining options
// into the identity checkpoints are bound to.
func fingerprintFor(x *tensor.COO, opt Options, sweep []int) string {
	return ckpt.Fingerprint(x.Dims, x.Inds, x.Vals, ckpt.Meta{
		Rank:        opt.Rank,
		Ridge:       opt.Ridge,
		NonNegative: opt.NonNegative,
		ModeOrder:   sweep,
	})
}

// iteration copies the boundary state into the pending checkpoint, reusing
// the previous snapshot's buffers, and writes it when a trigger is due. A
// write failure aborts the run — the caller asked for durability and is
// not getting it.
func (c *checkpointer) iteration(ev iterEvent) (bool, error) {
	c.snap.Iter = ev.iter
	c.snap.Fit = ev.fit
	c.snap.Lambda = append(c.snap.Lambda[:0], ev.lambda...)
	if c.snap.Factors == nil {
		c.snap.Factors = make([]*dense.Matrix, len(ev.factors))
	}
	for m, f := range ev.factors {
		if c.snap.Factors[m] == nil {
			c.snap.Factors[m] = dense.New(f.Rows, f.Cols)
		}
		c.snap.Factors[m].CopyFrom(f)
	}
	c.snap.FitTrace = append(c.snap.FitTrace[:0], ev.fitTrace...)
	if c.due(ev.iter) {
		return false, c.write()
	}
	return false, nil
}

func (c *checkpointer) due(iter int) bool {
	if c.every > 0 && iter-c.written >= c.every {
		return true
	}
	return c.interval > 0 && time.Since(c.lastWrite) >= c.interval
}

func (c *checkpointer) write() error {
	if _, err := c.mgr.Save(&c.snap); err != nil {
		return fmt.Errorf("cpd: checkpoint: %w", err)
	}
	c.written = c.snap.Iter
	c.lastWrite = time.Now()
	return nil
}

// end persists the newest boundary state when the run ends by convergence,
// the iteration cap, an early Progress stop or cancellation (SIGTERM via
// Ctx), so a resume never replays work the run already finished. After a
// failure (non-finite numerics, a failed write) it writes nothing: the last
// checkpoint on disk holds the last good state.
func (c *checkpointer) end(_ *Result, why exit) error {
	if why == exitFailed || c.snap.Iter <= c.written {
		return nil
	}
	return c.write()
}

// Resume continues a checkpointed run: it validates that the checkpoint was
// taken for exactly this tensor and these options (fingerprint match),
// seeds the loop with the checkpointed factors, λ, fit history, and
// convergence state, and runs the remaining iterations up to opt.MaxIters.
// The trajectory is identical to the uninterrupted run's, so the final fit
// matches to machine precision. Set opt.Checkpoint to keep checkpointing
// the resumed run (usually with the same directory).
func Resume(x *tensor.COO, eng engine.Engine, c *ckpt.Checkpoint, opt Options) (*Result, error) {
	if c == nil {
		return nil, errors.New("cpd: nil checkpoint")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opt.Rank <= 0 {
		return nil, errors.New("cpd: Rank must be positive")
	}
	sweep, err := sweepOrder(opt.ModeOrder, x.Order())
	if err != nil {
		return nil, err
	}
	if fp := fingerprintFor(x, opt, sweep); fp != c.Fingerprint {
		return nil, fmt.Errorf("cpd: checkpoint fingerprint %s does not match this tensor+options (%s): different tensor, rank, ridge, non-negativity, or mode order", c.Fingerprint, fp)
	}
	if len(c.Factors) != x.Order() {
		return nil, fmt.Errorf("cpd: checkpoint has %d factors for order-%d tensor", len(c.Factors), x.Order())
	}
	// initFactors clones Init, so the checkpoint stays untouched by the run.
	opt.Init = c.Factors
	opt.Seed = c.Seed
	if opt.Audit != nil {
		opt.Audit.RecordEvent(audit.Event{Kind: "resume", Iter: c.Iter, Fingerprint: c.Fingerprint})
	}
	return run(x, eng, opt, &resumeState{
		startIter: c.Iter + 1,
		prevFit:   c.Fit,
		lambda:    c.Lambda,
		fitTrace:  c.FitTrace,
	}, local{}, true)
}

// resumeState carries a checkpoint's loop state into run.
type resumeState struct {
	startIter int
	prevFit   float64
	lambda    []float64
	fitTrace  []float64
}
