package accum

import "sync/atomic"

// Config carries an engine's accumulation policy. The zero value means
// "the cost model decides every mode, with no budget", so engines that are
// constructed without explicit options keep working.
type Config struct {
	// PerMode, when non-nil, pins a strategy per target mode (the
	// plan-time table from model.Plan.Accum). Entries equal to Auto fall
	// through to the cost model.
	PerMode []Strategy
	// Workers is the parallel width the engine runs its kernels with
	// (<= 0 means par.MaxWorkers at resolve time, supplied by the caller).
	Workers int
	// LockFree marks engines whose scatter baseline takes no locks (memo
	// leaf contraction); see Input.LockFree.
	LockFree bool
	// Budget bounds the privatized footprint in bytes; <= 0 is unbounded.
	Budget int64
}

// Resolver answers "which backend for this mode at this rank?" at kernel
// entry. Auto decisions are cached per mode keyed by the rank they were
// made for, in atomics, so a /metrics scrape can read the resolved table
// while kernels run.
type Resolver struct {
	cfg Config
	// cached[m] packs (rank<<2 | strategy+1); 0 means unresolved. A rank
	// change (rare — between decompositions) just re-evaluates the model.
	cached []atomic.Int32
}

// NewResolver builds a resolver for an engine with nmodes target modes.
func NewResolver(nmodes int, cfg Config) *Resolver {
	return &Resolver{cfg: cfg, cached: make([]atomic.Int32, nmodes)}
}

// Workers reports the configured parallel width (may be <= 0 for default).
func (r *Resolver) Workers() int { return r.cfg.Workers }

// Resolve picks the backend for one MTTKRP call: the plan's per-mode
// table first, then the cached or freshly evaluated cost model. workers is
// the effective parallel width of this call.
func (r *Resolver) Resolve(mode, rows int, nnz int64, rank, workers int) Strategy {
	if pm := r.cfg.PerMode; mode < len(pm) {
		if s := pm[mode]; s != Auto {
			return s
		}
	}
	if mode >= len(r.cached) {
		// Defensive: unknown mode, evaluate without caching.
		return r.choose(rows, nnz, rank, workers).Strategy
	}
	if v := r.cached[mode].Load(); v != 0 && int(v>>2) == rank {
		return Strategy(v&3) - 1
	}
	s := r.choose(rows, nnz, rank, workers).Strategy
	r.cached[mode].Store(int32(rank)<<2 | int32(s+1))
	return s
}

// Resolved reports the backend mode resolved to on its last kernel entry,
// or Auto if the mode has not run yet. Safe to call concurrently with
// Resolve (metrics gauges read this).
func (r *Resolver) Resolved(mode int) Strategy {
	if pm := r.cfg.PerMode; mode < len(pm) {
		if s := pm[mode]; s != Auto {
			return s
		}
	}
	if mode < len(r.cached) {
		if v := r.cached[mode].Load(); v != 0 {
			return Strategy(v&3) - 1
		}
	}
	return Auto
}

func (r *Resolver) choose(rows int, nnz int64, rank, workers int) Choice {
	return Choose(Input{
		Rows:     rows,
		NNZ:      nnz,
		Rank:     rank,
		Workers:  workers,
		LockFree: r.cfg.LockFree,
		Budget:   r.cfg.Budget,
	}, DefaultCosts)
}
