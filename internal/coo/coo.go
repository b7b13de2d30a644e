// Package coo implements the element-streaming MTTKRP baseline: for every
// nonzero, the Hadamard product of the N−1 non-target factor rows is
// accumulated into the output row selected by the target-mode index. This is
// the algorithm used by coordinate-format tensor libraries (Tensor Toolbox
// style) and is the "no reuse, no compression" end of the design space the
// paper improves on: N·(N−1)·R·nnz multiply–adds per ALS iteration. The
// stream runs on kernel.ScatterAccum, whose AVX2 body takes a whole chunk
// of nonzeros per call.
package coo

import (
	"time"

	"adatm/internal/accum"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/kernel"
	"adatm/internal/obs"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Engine is the streaming-COO MTTKRP kernel.
type Engine struct {
	x       *tensor.COO
	workers int
	stripes *par.Stripes
	// idxBuf holds per-worker slice headers for the N−1 non-target index
	// columns, cut to the worker's chunk (or, under the stripe lock, to one
	// nonzero) before each kernel call; sized at construction so the
	// kernel allocates nothing, and padded (par.PerWorker) because the
	// striped path rewrites it per nonzero.
	idxBuf [][][]int32
	res    *accum.Resolver
	pool   *accum.Pool
	ctr    engine.Counters
	// body is the bound worker body (allocated once so MTTKRP passes a stored
	// func value, not a per-call closure — the zero-alloc steady state); the
	// cur* fields are its call-scoped inputs, set before the parallel region
	// and cleared after.
	body    func(worker, lo, hi int)
	curMode int
	curOut  *dense.Matrix
	curPool *accum.Pool
	// curInds and curData hold the non-target modes' index columns and
	// factor data in mode order: the kernel's index arrays (once cut to a
	// chunk) and factors.
	curInds [][]tensor.Index
	curData [][]float64
}

// New builds a COO engine over x. workers <= 0 selects GOMAXPROCS. The
// accumulation backend is model-resolved per mode (accum.Auto).
func New(x *tensor.COO, workers int) *Engine {
	return NewWithAccum(x, workers, accum.Config{})
}

// NewWithAccum is New with an explicit accumulation policy.
func NewWithAccum(x *tensor.COO, workers int, cfg accum.Config) *Engine {
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	e := &Engine{
		x:       x,
		workers: workers,
		idxBuf:  par.PerWorker[[]int32](w, max(x.Order()-1, 0)),
		res:     accum.NewResolver(x.Order(), cfg),
		pool:    accum.NewPool(w),
		curInds: make([][]tensor.Index, max(x.Order()-1, 0)),
		curData: make([][]float64, max(x.Order()-1, 0)),
	}
	e.body = e.runChunk
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "coo" }

// FactorUpdated implements engine.Engine; the COO kernel caches nothing.
func (e *Engine) FactorUpdated(int) {}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	var s engine.Stats
	e.ctr.Fill(&s)
	return s
}

// ResetStats implements engine.Engine.
func (e *Engine) ResetStats() { e.ctr.Reset() }

// Instrument implements engine.Instrumentable. The COO kernel splits
// nonzeros evenly across workers, so its chunk-imbalance gauge is the
// definitional 1.0, and it streams each chunk through the scattered kernel
// with no scratch arena, so its arena series are the definitional 0 — all
// exported anyway so dashboards see every engine on the same axis.
func (e *Engine) Instrument(_ *obs.Tracer, reg *obs.Registry) {
	if reg == nil {
		return
	}
	engine.RegisterCommonMetrics(reg, e.Name(), &e.ctr)
	l := obs.Labels{"engine": e.Name()}
	engine.RegisterNoArenaMetrics(reg, l)
	reg.GaugeFunc("adatm_par_chunk_imbalance_ratio",
		"Worst heaviest-chunk/ideal-share ratio of the weighted schedules.", l,
		func() float64 { return 1 })
	engine.RegisterAccumMetrics(reg, e.Name(), e.x.Order(), e.res, e.pool)
}

// MTTKRP implements engine.Engine. Parallelizes over nonzero blocks; output
// rows are accumulated through the mode's resolved backend — striped-lock
// scatter into the shared output, or per-worker private copies folded by a
// parallel reduction (see internal/accum).
func (e *Engine) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if err := engine.CheckInputs(e.x.Dims, mode, factors, out); err != nil {
		return err
	}
	start := time.Now()
	x := e.x
	r := out.Cols
	workers := e.workers
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	var pool *accum.Pool
	if e.res.Resolve(mode, out.Rows, int64(x.NNZ()), r, workers) == accum.Privatize {
		pool = e.pool
		pool.Begin(out.Rows, r)
	} else {
		e.stripes = par.EnsureStripes(e.stripes, out.Rows)
		out.Zero()
	}
	g := 0
	for m, f := range factors {
		if m != mode {
			e.curInds[g], e.curData[g] = x.Inds[m], f.Data
			g++
		}
	}
	e.curMode, e.curOut, e.curPool = mode, out, pool
	par.ForWorker(x.NNZ(), e.workers, e.body)
	e.curOut, e.curPool = nil, nil
	clear(e.curData)
	if pool != nil {
		pool.Reduce(out, workers)
	}
	e.ctr.Observe(start)
	return nil
}

// runChunk streams nonzeros [lo, hi) through the scattered kernel: for
// each nonzero, the value times its N−1 non-target factor rows is added to
// its output row in one pass over R (kernel.ScatterAccum). On the
// privatized path (curPool set) one call covers the whole chunk, into the
// worker's private copy; on the shared output each nonzero is one call
// under its row's stripe lock.
func (e *Engine) runChunk(worker, lo, hi int) {
	x := e.x
	out, inds, data := e.curOut, e.curInds, e.curData
	r := out.Cols
	target := x.Inds[e.curMode]
	idx := e.idxBuf[worker]
	if e.curPool != nil {
		for g, ind := range inds {
			idx[g] = ind[lo:hi]
		}
		priv := e.curPool.Acquire(worker)
		kernel.ScatterAccum(priv.Data, r, target[lo:hi], x.Vals[lo:hi], idx, data)
	} else {
		stripes := e.stripes
		for k := lo; k < hi; k++ {
			for g, ind := range inds {
				idx[g] = ind[k : k+1]
			}
			i := target[k]
			stripes.Lock(i)
			kernel.ScatterAccum(out.Data, r, target[k:k+1], x.Vals[k:k+1], idx, data)
			stripes.Unlock(i)
		}
	}
	e.ctr.AddOps(int64(hi-lo) * int64(x.Order()) * int64(r))
}

var _ engine.Engine = (*Engine)(nil)
