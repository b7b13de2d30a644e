package memo

import (
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"adatm/internal/accum"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/kernel"
	"adatm/internal/obs"
	"adatm/internal/par"
	"adatm/internal/tensor"
)

// Engine is the memoized MTTKRP engine: a strategy tree of semi-sparse
// intermediate tensors over a fixed input tensor. The symbolic phase runs
// once at construction; every MTTKRP materializes (or reuses) the value
// matrices along the path from the root to the requested mode's leaf, and
// FactorUpdated invalidates exactly the nodes contracted with the factor
// that changed.
type Engine struct {
	x       *tensor.COO
	strat   *Strategy
	name    string
	workers int
	retain  bool

	// For a strategy over another mode order, pos[m] is the position of
	// original mode m and pfac holds each call's factors in position order
	// (both nil for the natural order).
	pos  []int
	pfac []*dense.Matrix

	root   *node
	all    []*node
	leaves []*node

	rank int // R of the cached value matrices; 0 until the first MTTKRP

	// Per-worker factor-row scratch for the fused Hadamard-accumulate
	// kernel, which serves only the root's children the engine does not
	// stream, sized workers × maxDelta at construction so the numeric
	// phase allocates nothing.
	rowsBuf [][][]float64
	// Call-scoped compute inputs plus a method value bound once at
	// construction: every compute passes the same func value to the
	// scheduler instead of a fresh closure, keeping steady state at zero
	// allocations.
	curNode    *node
	curDst     *dense.Matrix
	curScatter []tensor.Index
	body       func(worker, lo, hi int)

	// Privatized leaf accumulation: the scatter path above is already
	// lock-free (distinct leaf elements own distinct output rows), but its
	// parallel width is capped by the leaf element count — a short target
	// mode starves it. The privatized path parallelizes over the flattened
	// reduction entries instead, each worker accumulating into a private
	// output copy folded afterwards by pool.Reduce. privBody is the bound
	// method value mirroring body, for the same zero-alloc reason.
	res      *accum.Resolver
	pool     *accum.Pool
	privBody func(worker, lo, hi int)

	ctr        engine.Counters
	idxBytes   int64
	curValB    atomic.Int64
	peakValB   atomic.Int64
	symbolicNS int64

	// Memoization effectiveness counters: a hit is an ensure request served
	// by an already-materialized node, a miss is a node (re)build, an
	// eviction is a cached node dropped by invalidation. Atomic so a live
	// /metrics scrape can read them mid-run; the mutating paths are the
	// single-threaded kernel entry, so the adds never contend.
	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64

	// tr, when non-nil, receives one span per node rebuild (named at
	// instrumentation time in spanNames, indexed like all).
	tr        *obs.Tracer
	spanNames []string
}

// New builds the engine for the given strategy with the zero Config's
// defaults: no buffer retention and no root streaming, the layout that
// never uses more memory than a budgeted plan. name labels the engine in
// reports (e.g. "memo-binary"); an empty name defaults to "memo".
func New(x *tensor.COO, strat *Strategy, workers int, name string) (*Engine, error) {
	return NewWithConfig(x, strat, Config{Workers: workers, Name: name})
}

// Config holds the optional knobs of the memoized engine.
type Config struct {
	Workers int
	Name    string
	// RetainBuffers keeps each node's value storage allocated across
	// invalidations, trading steady peak memory (every node's buffer lives
	// simultaneously after the first iteration) for zero per-iteration
	// allocation. It carries the cost model's retention decision
	// (model.Plan.Retain) rather than a user option.
	RetainBuffers bool
	// StreamRoot stores the reduction of every non-leaf child of the root
	// as streamed tuples in reduction order (each nonzero's value and
	// delta indices copied next to each other), so the contractions that
	// read every nonzero run sequentially, one kernel.StreamRuns call per
	// scheduled chunk. It costs parentElems·(8 + 4·|δ| − 4) extra index
	// bytes per such child and carries the cost model's decision
	// (model.Plan.Stream); without it, and always for leaves, root children
	// gather their factor rows through redElems, one nonzero at a time.
	// Deeper nodes are not streamed: they run the gathered kernel
	// (kernel.GatherRuns, one call per chunk) over their parent's cached
	// rows.
	StreamRoot bool
	// Accum is the output-accumulation policy for the leaf contraction
	// (LockFree is forced on — the scatter baseline here takes no locks).
	Accum accum.Config
}

// NewWithConfig is New with the full configuration surface. A strategy
// over another mode order builds its tree over a view of x in that order,
// aliasing x's index and value arrays; MTTKRP and FactorUpdated keep taking
// original modes. The plan's accumulation table (cfg.Accum.PerMode) is
// indexed by position in that order; the engine resolves and reports it by
// original mode.
func NewWithConfig(x *tensor.COO, strat *Strategy, cfg Config) (*Engine, error) {
	if err := strat.Validate(x.Order()); err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = "memo"
	}
	e := &Engine{x: x, strat: strat, name: name, workers: cfg.Workers, retain: cfg.RetainBuffers}
	view := x
	if strat.Modes != nil {
		view = x.PermuteModes(strat.Modes)
		e.pos = make([]int, x.Order())
		for p, m := range strat.Modes {
			e.pos[m] = p
		}
		e.pfac = make([]*dense.Matrix, x.Order())
	}
	start := time.Now()
	e.root, e.all, e.leaves = buildTree(view, strat, cfg.Workers, cfg.StreamRoot)
	e.symbolicNS = time.Since(start).Nanoseconds()
	maxDelta := 0
	for _, t := range e.all {
		e.idxBytes += t.indexBytes()
		if len(t.delta) > maxDelta {
			maxDelta = len(t.delta)
		}
	}
	w := cfg.Workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	e.rowsBuf = make([][][]float64, w)
	for i := range e.rowsBuf {
		e.rowsBuf[i] = make([][]float64, maxDelta)
	}
	e.body = e.runChunk
	acfg := cfg.Accum
	acfg.LockFree = true
	if e.pos != nil && acfg.PerMode != nil {
		per := make([]accum.Strategy, x.Order())
		for p, m := range strat.Modes {
			if p < len(acfg.PerMode) {
				per[m] = acfg.PerMode[p]
			}
		}
		acfg.PerMode = per
	}
	e.res = accum.NewResolver(x.Order(), acfg)
	e.pool = accum.NewPool(w)
	e.privBody = e.runPrivChunk
	return e, nil
}

// Strategy returns the strategy tree the engine was built with.
func (e *Engine) Strategy() *Strategy { return e.strat }

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	s := engine.Stats{
		IndexBytes:     e.idxBytes,
		ValueBytes:     e.curValB.Load(),
		PeakValueBytes: e.peakValB.Load(),
		SymbolicNS:     e.symbolicNS,
	}
	e.ctr.Fill(&s)
	return s
}

// MemoStats reports the memoization effectiveness counters: ensure requests
// served from cache (hits), node (re)builds (misses), and cached nodes
// dropped by invalidation (evictions).
func (e *Engine) MemoStats() (hits, misses, evictions int64) {
	return e.hits.Load(), e.misses.Load(), e.evicts.Load()
}

// Instrument implements engine.Instrumentable: the memoization counters and
// live value-storage gauge go to the registry, and node rebuilds are spanned
// in the tracer (named memo.rebuild[lo:hi) after each node's position range
// in the strategy's order, which is its mode range in the natural order).
// The worst per-node chunk imbalance of the reduction schedule is exported
// as a gauge — the number the weighted scheduler exists to keep near 1.
func (e *Engine) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	if tr != nil {
		e.spanNames = make([]string, len(e.all))
		for i, t := range e.all {
			e.spanNames[i] = "memo.rebuild[" + strconv.Itoa(t.lo) + ":" + strconv.Itoa(t.hi) + ")"
			t.id = i
		}
		e.tr = tr
	}
	if reg == nil {
		return
	}
	engine.RegisterCommonMetrics(reg, e.name, &e.ctr)
	l := obs.Labels{"engine": e.name}
	reg.CounterFunc("adatm_memo_hits_total",
		"Memoized-node requests served from cache.", l,
		func() float64 { return float64(e.hits.Load()) })
	reg.CounterFunc("adatm_memo_misses_total",
		"Memoized-node requests that (re)built the node.", l,
		func() float64 { return float64(e.misses.Load()) })
	reg.CounterFunc("adatm_memo_evictions_total",
		"Cached nodes dropped by factor invalidation.", l,
		func() float64 { return float64(e.evicts.Load()) })
	reg.GaugeFunc("adatm_memo_value_bytes",
		"Live semi-sparse value storage of the strategy tree.", l,
		func() float64 { return float64(e.curValB.Load()) })
	reg.GaugeFunc("adatm_memo_peak_value_bytes",
		"Peak simultaneously live value storage.", l,
		func() float64 { return float64(e.peakValB.Load()) })
	worst := 1.0
	for _, t := range e.all {
		if t.parent == nil {
			continue
		}
		if v := par.ImbalanceRatio(t.redPtr, t.chunks); v > worst {
			worst = v
		}
	}
	reg.GaugeFunc("adatm_par_chunk_imbalance_ratio",
		"Worst heaviest-chunk/ideal-share ratio of the weighted schedules.", l,
		func() float64 { return worst })
	engine.RegisterAccumMetrics(reg, e.name, len(e.x.Dims), e.res, e.pool)
}

// ResetStats implements engine.Engine.
func (e *Engine) ResetStats() { e.ctr.Reset() }

// FactorUpdated implements engine.Engine: every cached node contracted with
// factors[mode] becomes stale and is dropped.
func (e *Engine) FactorUpdated(mode int) {
	if e.pos != nil {
		mode = e.pos[mode]
	}
	for _, t := range e.all {
		if t.vals != nil && t.dependsOn(mode) {
			e.free(t)
		}
	}
}

// invalidateAll drops every cached value matrix (used when R changes).
func (e *Engine) invalidateAll() {
	for _, t := range e.all {
		if t.vals != nil {
			e.free(t)
		}
	}
}

func (e *Engine) free(t *node) {
	if !e.retain {
		e.curValB.Add(-int64(t.nelem) * int64(e.rank) * 8)
	}
	t.vals = nil
	e.evicts.Add(1)
}

func (e *Engine) alloc(t *node, r int) {
	need := t.nelem * r
	if e.retain {
		if cap(t.buf) >= need {
			// Reuse the retained storage through the node's own matrix
			// header: no allocation, bytes already counted.
			t.mat = dense.Matrix{Rows: t.nelem, Cols: r, Data: t.buf[:need]}
			t.vals = &t.mat
			return
		}
		// Replacing retained storage (rank grew): swap the accounting.
		e.curValB.Add(-int64(cap(t.buf)) * 8)
	}
	t.vals = dense.New(t.nelem, r)
	if e.retain {
		t.buf = t.vals.Data
	}
	cur := e.curValB.Add(int64(need) * 8)
	if cur > e.peakValB.Load() {
		e.peakValB.Store(cur)
	}
}

// MTTKRP implements engine.Engine.
func (e *Engine) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if err := engine.CheckInputs(e.x.Dims, mode, factors, out); err != nil {
		return err
	}
	start := time.Now()
	r := out.Cols
	if e.rank != r {
		e.invalidateAll()
		e.rank = r
	}
	pos := mode
	if e.pos != nil {
		for p, m := range e.strat.Modes {
			e.pfac[p] = factors[m]
		}
		factors, pos = e.pfac, e.pos[mode]
	}
	leaf := e.leaves[pos]
	e.ensure(leaf.parent, factors, r)
	// The leaf contraction is fused with the output scatter: each leaf
	// element's row is accumulated straight into the output row of its mode
	// index instead of being materialized and then copied. Mode indices
	// absent from the tensor keep zero rows. The accumulation backend is
	// resolved per mode: element-parallel in-place scatter (lock-free but
	// starved when the mode has few distinct indices), or entry-parallel
	// privatized accumulation with a folding reduction.
	workers := e.workers
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	if e.res.Resolve(mode, out.Rows, int64(leaf.parent.nelem), r, workers) == accum.Privatize {
		e.computePrivatized(leaf, factors, r, out, workers)
	} else {
		out.Zero()
		e.compute(leaf, factors, r, out, leaf.inds[0])
	}
	e.ctr.Observe(start)
	return nil
}

// ensure materializes t.vals (recursively materializing ancestors first),
// counting cache hits and (re)build misses and spanning each rebuild.
func (e *Engine) ensure(t *node, factors []*dense.Matrix, r int) {
	if t.parent == nil {
		return
	}
	if t.vals != nil {
		e.hits.Add(1)
		return
	}
	e.misses.Add(1)
	p := t.parent
	e.ensure(p, factors, r)
	e.alloc(t, r)
	if e.tr != nil {
		sp := e.tr.StartSpan(e.spanNames[t.id], 0)
		e.compute(t, factors, r, t.vals, nil)
		sp.End()
		return
	}
	e.compute(t, factors, r, t.vals, nil)
}

// compute evaluates the contraction of the parent's semi-sparse tensor with
// the delta-mode factor rows, reduced into t's elements. The inner loop is
// the paper's TTM-through-Hadamard kernel, run through the shared fused
// primitives (see reduceRuns). When scatter is nil, element i's row is
// dst.Row(i) (materializing t.vals); otherwise it is dst.Row(scatter[i])
// (the fused leaf-to-output scatter). Elements are scheduled in
// reduction-weighted chunks; distinct elements own distinct destination
// rows, so no synchronization is needed.
func (e *Engine) compute(t *node, factors []*dense.Matrix, r int, dst *dense.Matrix, scatter []tensor.Index) {
	e.bindFactors(t, factors)
	e.curNode, e.curDst, e.curScatter = t, dst, scatter
	par.ForChunks(t.chunks, e.workers, e.body)
	e.curNode, e.curDst, e.curScatter = nil, nil, nil
	e.ctr.AddOps(int64(t.parent.nelem) * int64(len(t.delta)+1) * int64(r))
}

// bindFactors fills t's factor scratch with the delta modes' row-major
// factor data (row stride R).
func (e *Engine) bindFactors(t *node, factors []*dense.Matrix) {
	for k, d := range t.delta {
		t.facData[k] = factors[d].Data
	}
}

// runChunk processes one scheduled chunk of the current compute's child
// elements on the given worker: elements [lo, hi) are runs lo..hi−1 of
// the reduction pointer, each setting its own destination row.
func (e *Engine) runChunk(worker, lo, hi int) {
	t, dst, rows := e.curNode, e.curDst, e.curScatter
	r := dst.Cols
	data := dst.Data
	if rows == nil {
		data = data[lo*r : hi*r]
	} else {
		rows = rows[lo:hi]
	}
	e.reduceRuns(worker, t, data, r, t.redPtr[lo:hi+1], rows)
}

// reduceRuns sets, for each run i of t's reduction entries given by ptr,
// its destination row of dst (row stride r: row rows[i], or row i when
// rows is nil) to the run's sum. A streamed child of the root hands the
// whole chunk to the streamed kernel: values and delta indices are
// contiguous in reduction order. A deeper node hands it to the gathered
// kernel, which reads each entry's parent element through redElems and
// multiplies the parent's cached R-row by its factor rows. A child of the
// root whose stream bytes the cost model declined clears each row, then
// gathers each entry's factor rows and multiplies the nonzero value. Every
// path adds the entries in reduction order, to a sum that starts at zero,
// with the same association, so all give the same bits.
func (e *Engine) reduceRuns(worker int, t *node, dst []float64, r int, ptr []int64, rows []tensor.Index) {
	p := t.parent
	if t.sVals != nil {
		kernel.StreamRuns(dst, r, ptr, rows, t.sVals, t.sIdx, t.facData)
		return
	}
	if p.parent != nil {
		kernel.GatherRuns(dst, r, ptr, rows, p.vals.Data, t.redElems, t.deltaIdx, t.facData)
		return
	}
	fr := e.rowsBuf[worker][:len(t.delta)]
	vals := e.x.Vals
	for i := 0; i+1 < len(ptr); i++ {
		o := i * r
		if rows != nil {
			o = int(rows[i]) * r
		}
		out := dst[o : o+r]
		clear(out)
		for ei := ptr[i]; ei < ptr[i+1]; ei++ {
			pe := int(t.redElems[ei])
			for k := range fr {
				fo := int(t.deltaIdx[k][pe]) * r
				fr[k] = t.facData[k][fo : fo+r]
			}
			kernel.HadamardAccum(out, vals[pe], fr)
		}
	}
}

// computePrivatized is the privatized-accumulation variant of the fused
// leaf contraction: workers split the flattened reduction entries (full
// parallel width even when the leaf has fewer elements than workers) and
// accumulate into per-worker output copies, folded into out by a parallel
// tiled reduction. Mirrors compute's call-scoped-field pattern so the
// steady state stays allocation-free.
func (e *Engine) computePrivatized(t *node, factors []*dense.Matrix, r int, out *dense.Matrix, workers int) {
	e.bindFactors(t, factors)
	e.pool.Begin(out.Rows, r)
	e.curNode, e.curScatter = t, t.inds[0]
	par.ForWorker(t.parent.nelem, e.workers, e.privBody)
	e.pool.Reduce(out, workers)
	e.curNode, e.curScatter = nil, nil
	e.ctr.AddOps(int64(t.parent.nelem) * int64(len(t.delta)+1) * int64(r))
}

// runPrivChunk processes reduction entries [lo, hi) of the current
// privatized leaf contraction on the given worker, into the worker's
// private output copy. The runs lying wholly inside the range go to the
// kernel as one chunk; a run cut by either end of the range goes as a
// one-run pointer pair over its part. The leaf elements owning entries lo
// and hi are found by binary search on the reduction pointer. Each private
// row is written at most once per call, and the pool hands out zeroed
// copies, so setting a row equals adding into it.
func (e *Engine) runPrivChunk(worker, lo, hi int) {
	t := e.curNode
	rows := e.curScatter
	priv := e.pool.Acquire(worker)
	r := priv.Cols
	ptr := t.redPtr
	a, b := int64(lo), int64(hi)
	// Greatest i with ptr[i] <= a, then greatest j with ptr[j] <= b.
	i, _ := slices.BinarySearch(ptr, a+1)
	i--
	var pair [2]int64
	if ptr[i] < a {
		pair = [2]int64{a, min(ptr[i+1], b)}
		e.reduceRuns(worker, t, priv.Data, r, pair[:], rows[i:i+1])
		if pair[1] == b {
			return
		}
		i++
	}
	j, _ := slices.BinarySearch(ptr, b+1)
	j--
	e.reduceRuns(worker, t, priv.Data, r, ptr[i:j+1], rows[i:j])
	if ptr[j] < b {
		pair = [2]int64{ptr[j], b}
		e.reduceRuns(worker, t, priv.Data, r, pair[:], rows[j:j+1])
	}
}

// NodeElemCounts returns, for every node in pre-order, its position range
// and the number of distinct projected tuples — the quantities the cost model
// estimates. Used to validate the model against the exact symbolic phase.
func (e *Engine) NodeElemCounts() []NodeCount {
	out := make([]NodeCount, 0, len(e.all))
	for _, t := range e.all {
		out = append(out, NodeCount{Lo: t.lo, Hi: t.hi, Elems: t.nelem})
	}
	return out
}

// NodeCount reports the element count of one tree node.
type NodeCount struct {
	Lo, Hi int
	Elems  int
}

// PerIterationOps returns the exact number of Hadamard op units one full
// CP-ALS iteration (one MTTKRP per mode, in order, with the standard
// invalidation pattern) costs at rank r: every non-root node is computed
// exactly once per iteration, costing parentElems·(|δ|+1)·r.
func (e *Engine) PerIterationOps(r int) int64 {
	var ops int64
	for _, t := range e.all {
		if t.parent == nil {
			continue
		}
		ops += int64(t.parent.nelem) * int64(len(t.delta)+1) * int64(r)
	}
	return ops
}

var _ engine.Engine = (*Engine)(nil)
