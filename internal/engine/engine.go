// Package engine defines the interface every MTTKRP kernel in this
// repository implements, plus the operation/memory accounting structure the
// benchmark harness and the cost model share.
//
// CP-ALS is written against this interface so the streaming-COO baseline,
// the CSF (SPLATT-equivalent) baseline, and the memoized semi-sparse engines
// are interchangeable, which is what makes the paper's engine-vs-engine
// comparisons meaningful: everything outside MTTKRP is identical code.
package engine

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"adatm/internal/accum"
	"adatm/internal/dense"
	"adatm/internal/obs"
)

// Stats aggregates the work and footprint counters of an engine.
//
// HadamardOps counts fused multiply–accumulate operations on length-R rows
// (one unit = one scalar multiply-add), which is the paper's
// machine-independent operation metric. MTTKRPCalls/MTTKRPNS record how many
// MTTKRP invocations ran and the wall time spent inside them — the counters
// the run-report and experiment harness read instead of wrapping every call
// in an ad-hoc stopwatch. IndexBytes and ValueBytes are the engine's
// auxiliary storage beyond the input tensor; PeakValueBytes tracks the
// maximum simultaneously live intermediate value storage.
type Stats struct {
	HadamardOps    int64
	MTTKRPCalls    int64
	MTTKRPNS       int64 // wall time inside MTTKRP, nanoseconds
	IndexBytes     int64
	ValueBytes     int64
	PeakValueBytes int64
	SymbolicNS     int64 // one-time preprocessing time, nanoseconds
}

// Engine computes MTTKRP products for a fixed sparse tensor.
type Engine interface {
	// Name identifies the engine in reports ("coo", "csf", "memo-binary", ...).
	Name() string

	// MTTKRP computes M = X_(mode) · ⊙_{i≠mode} factors[i] into out, which
	// must be Dims[mode] × R and is fully overwritten. factors must hold one
	// I_i × R matrix per mode (factors[mode] is ignored). Malformed inputs —
	// mode out of range, wrong factor arity or shapes, an output that is not
	// Dims[mode] × R — return an error without touching out, so a server
	// embedding the library cannot be crashed by a bad request.
	MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) error

	// FactorUpdated tells the engine that factors[mode] changed, so any
	// cached intermediate depending on it must be invalidated. Engines
	// without caches treat this as a no-op.
	FactorUpdated(mode int)

	// Stats returns the accumulated counters.
	Stats() Stats

	// ResetStats zeroes the work counters (footprint counters persist).
	ResetStats()
}

// Instrumentable is implemented by engines that can attach to the
// observability layer: registering their counters with a metrics registry
// and (where they have interesting internal structure, like the memoized
// strategy tree) emitting spans into a tracer. Either argument may be nil;
// engines must treat instrumentation as strictly additive — a nil tracer or
// registry leaves the hot path at a pointer test.
type Instrumentable interface {
	Instrument(tr *obs.Tracer, reg *obs.Registry)
}

// RegisterCommonMetrics registers the work counters every engine shares —
// Hadamard op units, MTTKRP call count, and cumulative in-kernel seconds —
// as callback metrics reading the engine's atomic Counters. Labelled by
// engine name so several engines can coexist in one registry. Safe to call
// with a nil registry.
func RegisterCommonMetrics(reg *obs.Registry, name string, c *Counters) {
	if reg == nil {
		return
	}
	l := obs.Labels{"engine": name}
	reg.CounterFunc("adatm_engine_hadamard_ops_total",
		"Fused multiply-add op units executed by the MTTKRP kernel.", l,
		func() float64 { return float64(c.ops.Load()) })
	reg.CounterFunc("adatm_engine_mttkrp_calls_total",
		"Completed MTTKRP kernel invocations.", l,
		func() float64 { return float64(c.calls.Load()) })
	reg.CounterFunc("adatm_engine_mttkrp_seconds_total",
		"Wall-clock seconds spent inside the MTTKRP kernel.", l,
		func() float64 { return float64(c.ns.Load()) / 1e9 })
}

// RegisterNoArenaMetrics registers the kernel-arena series at a constant 0
// for an engine that streams through the fused kernels without a scratch
// arena (coo, hicoo), so those engines report on the same axis as the ones
// that own one. Safe to call with a nil registry.
func RegisterNoArenaMetrics(reg *obs.Registry, l obs.Labels) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("adatm_kernel_arena_bytes",
		"Per-worker scratch arena backing bytes.", l,
		func() float64 { return 0 })
	reg.CounterFunc("adatm_kernel_arena_grows_total",
		"Arena backing-store reallocations.", l,
		func() float64 { return 0 })
}

// RegisterAccumMetrics registers the accumulation-layer metrics every
// scatter engine shares: the per-mode resolved strategy (encoded as the
// accum.Strategy value — 0 auto/unresolved, 1 scatter, 2 privatize),
// cumulative seconds inside the privatized parallel reduction, and the
// privatized pool footprint. Safe to call with a nil registry.
func RegisterAccumMetrics(reg *obs.Registry, name string, nmodes int, res *accum.Resolver, pool *accum.Pool) {
	if reg == nil {
		return
	}
	for m := 0; m < nmodes; m++ {
		mode := m
		reg.GaugeFunc("adatm_accum_strategy",
			"Resolved output-accumulation backend per target mode (0 auto/unresolved, 1 scatter, 2 privatize).",
			obs.Labels{"engine": name, "mode": strconv.Itoa(mode)},
			func() float64 { return float64(res.Resolved(mode)) })
	}
	l := obs.Labels{"engine": name}
	reg.CounterFunc("adatm_accum_reduce_seconds",
		"Wall-clock seconds spent folding privatized partials into the MTTKRP output.", l,
		func() float64 { return float64(pool.ReduceNS()) / 1e9 })
	reg.GaugeFunc("adatm_accum_pool_bytes",
		"Backing bytes of the per-worker privatized output copies.", l,
		func() float64 { return float64(pool.Bytes()) })
}

// CheckInputs validates the MTTKRP contract shared by every engine against
// the tensor's dimensions: mode in range, one factor per mode (the target
// mode's entry may be nil — it is never read), every non-target factor
// shaped at least Dims[m] × R, and out shaped exactly Dims[mode] × R with
// R >= 1. The happy path performs no allocation, so engines can call it on
// every kernel entry without disturbing the steady-state zero-alloc
// guarantee.
func CheckInputs(dims []int, mode int, factors []*dense.Matrix, out *dense.Matrix) error {
	if mode < 0 || mode >= len(dims) {
		return fmt.Errorf("engine: mode %d out of range for order-%d tensor", mode, len(dims))
	}
	if out == nil {
		return fmt.Errorf("engine: nil MTTKRP output matrix")
	}
	if out.Rows != dims[mode] {
		return fmt.Errorf("engine: MTTKRP output has %d rows, want Dims[%d] = %d", out.Rows, mode, dims[mode])
	}
	r := out.Cols
	if r < 1 {
		return fmt.Errorf("engine: MTTKRP output has %d columns, want rank >= 1", r)
	}
	if len(factors) != len(dims) {
		return fmt.Errorf("engine: %d factor matrices for order-%d tensor", len(factors), len(dims))
	}
	for m, f := range factors {
		if m == mode {
			continue
		}
		if f == nil {
			return fmt.Errorf("engine: factor %d is nil", m)
		}
		if f.Rows < dims[m] || f.Cols != r {
			return fmt.Errorf("engine: factor %d is %dx%d, want at least %dx%d", m, f.Rows, f.Cols, dims[m], r)
		}
	}
	return nil
}

// Counters is the atomic work accumulator every engine embeds: Hadamard op
// units plus the MTTKRP call count and wall time. AddOps is safe to call
// from worker goroutines; Observe is called once per MTTKRP from the
// single-threaded kernel entry.
type Counters struct {
	ops   atomic.Int64
	calls atomic.Int64
	ns    atomic.Int64
}

// AddOps accumulates Hadamard op units.
func (c *Counters) AddOps(n int64) { c.ops.Add(n) }

// Observe records one completed MTTKRP call that started at the given time.
func (c *Counters) Observe(start time.Time) {
	c.calls.Add(1)
	c.ns.Add(time.Since(start).Nanoseconds())
}

// Fill copies the work counters into s (footprint fields are untouched).
func (c *Counters) Fill(s *Stats) {
	s.HadamardOps = c.ops.Load()
	s.MTTKRPCalls = c.calls.Load()
	s.MTTKRPNS = c.ns.Load()
}

// Reset zeroes the work counters.
func (c *Counters) Reset() {
	c.ops.Store(0)
	c.calls.Store(0)
	c.ns.Store(0)
}
