// Package cpd implements the CP-ALS (alternating least squares) driver for
// sparse CANDECOMP/PARAFAC decomposition. The MTTKRP bottleneck is delegated
// to a pluggable engine (streaming COO, CSF, or a memoized semi-sparse
// strategy tree), so everything outside that kernel — Gram precomputation,
// the pseudoinverse solve, column normalization, and the fast fit — is
// shared code across every engine comparison in the evaluation.
package cpd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"adatm/internal/audit"
	"adatm/internal/dense"
	"adatm/internal/dist"
	"adatm/internal/engine"
	"adatm/internal/health"
	"adatm/internal/obs"
	"adatm/internal/tensor"
)

// Options configures a decomposition run.
type Options struct {
	Rank     int     // number of rank-one components (R)
	MaxIters int     // maximum ALS iterations (default 50)
	Tol      float64 // convergence threshold on the fit change (default 1e-5)
	Seed     int64   // RNG seed for factor initialization
	Workers  int     // parallel width for dense kernels (<= 0: GOMAXPROCS)
	// Init provides initial factor matrices (one I_n × Rank matrix per
	// mode); nil selects random initialization from Seed.
	Init []*dense.Matrix
	// TrackFit records the fit after every iteration in Result.FitTrace.
	// The fit is always computed for the convergence test; this only
	// controls whether the trajectory is retained.
	TrackFit bool
	// Ridge adds λ·I to the Gram-Hadamard system before each solve
	// (Tikhonov regularization), stabilizing ill-conditioned updates and
	// damping overfitting in completion-style uses.
	Ridge float64
	// NonNegative switches the factor update from the least-squares solve
	// to the Lee–Seung multiplicative rule U ← U ∘ M ⁄ (U·H + ε), keeping
	// every factor entry non-negative. Requires a non-negative tensor.
	NonNegative bool
	// ModeOrder is the order the sub-iterations visit the modes (a
	// permutation of 0..N-1; nil = natural). A memoization tree over
	// another mode order needs the sweep to follow that order
	// (memo.Strategy.SweepOrder) so every intermediate is materialized
	// exactly once per iteration.
	ModeOrder []int
	// Ctx, when non-nil, is checked between mode sub-iterations. On
	// cancellation Run stops within one sub-iteration and returns the
	// partial Result (factors normalized, Stopped set) together with
	// ctx.Err().
	Ctx context.Context
	// Progress, when non-nil, is invoked after every completed iteration,
	// the converging one included. Returning false stops the run early with
	// a valid Result (Stopped set, no error); on the converging iteration
	// the run ends converged whatever it returns.
	Progress func(IterStats) bool
	// CollectStats attaches a per-phase RunStats breakdown to the Result.
	// When false (the default) only the coarse MTTKRPTime/TotalTime
	// stopwatches run and the overhead is near zero.
	CollectStats bool
	// Tracer, when non-nil, receives one span per ALS phase interval and per
	// per-mode MTTKRP call, exportable as Chrome trace-event JSON.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives per-phase latency histograms and the
	// iteration/fit run gauges (metric names adatm_cpd_*).
	Metrics *obs.Registry
	// Audit, when non-nil, reconciles the cost model's selection decision
	// against the run's measured counters at run end (adaptive engines
	// deposit their Decision at construction time). All audit work happens
	// at run end, so the steady state stays allocation-free.
	Audit *audit.Recorder
	// Checkpoint, when non-nil, makes the run durable: iteration-boundary
	// state is written crash-atomically to Checkpoint.Dir on the configured
	// cadence (and when the run ends), and Resume continues the run from
	// the newest checkpoint with an identical trajectory.
	Checkpoint *CheckpointConfig
	// Health, when non-nil, observes every completed iteration's numerical
	// state (fit delta, λ dynamics, Gram-Hadamard conditioning, factor
	// congruence) and maintains a debounced healthy/stalled/swamp-suspect/
	// ill-conditioned verdict. The probe reads only state already resident
	// in the loop — no extra MTTKRPs — and is allocation-free in steady
	// state.
	Health *health.Probe
}

// epsMU guards the multiplicative-update denominator against division by
// zero (the customary NMF epsilon).
const epsMU = 1e-12

// Result holds the decomposition [λ; U¹, …, Uᴺ] and run statistics.
type Result struct {
	Lambda  []float64       // component weights, one per rank
	Factors []*dense.Matrix // column-normalized factor matrices
	Iters   int
	// Fit is 1 − ‖X − X̂‖/‖X‖ after the final iteration. NaN when the run
	// was stopped (ctx cancellation) before any iteration completed, i.e.
	// before the first fit was ever computed — check Iters > 0 or
	// math.IsNaN before consuming it.
	Fit float64
	// Converged reports whether the fit change dropped below Tol before
	// MaxIters.
	Converged bool
	FitTrace  []float64
	// Stopped reports that the run ended early — Ctx was cancelled or a
	// Progress callback returned false — rather than by convergence or the
	// iteration cap.
	Stopped bool
	// Timing breakdown.
	MTTKRPTime time.Duration
	TotalTime  time.Duration
	// Stats holds the per-phase breakdown; nil unless Options.CollectStats.
	Stats *RunStats
}

// Run decomposes x at the configured rank using the given MTTKRP engine.
func Run(x *tensor.COO, eng engine.Engine, opt Options) (*Result, error) {
	return run(x, eng, opt, nil, local{}, true)
}

// exchange is the seam between the ALS loop and the other processes of a
// sharded run (RunDist). Each process owns a subset of every mode's rows and
// solves, normalizes and takes the Gram of only those; the three operations
// move rows and partial sums between processes:
//   - Reduce sums the processes' MTTKRP rows m into the rows this process
//     owns and returns them with this process's owned rows of the factor u,
//     both compact;
//   - Expand writes the updated owned rows back into u and brings u's other
//     touched rows up to date from their owners;
//   - AllReduce sums a short vector (column sums of squares, partial Gram,
//     fit inner product) across processes, in a fixed order.
type exchange interface {
	Reduce(mode, iter int, m, u *dense.Matrix) (mOwn, uOwn *dense.Matrix, err error)
	Expand(mode, iter int, uOwn, u *dense.Matrix) error
	AllReduce(v []float64, tag uint8, mode, iter int) error
}

// local is the single-node exchange: the one process owns every row, so
// each operation is the identity and no matrix is copied.
type local struct{}

func (local) Reduce(_, _ int, m, u *dense.Matrix) (*dense.Matrix, *dense.Matrix, error) {
	return m, u, nil
}
func (local) Expand(int, int, *dense.Matrix, *dense.Matrix) error { return nil }
func (local) AllReduce([]float64, uint8, int, int) error          { return nil }

// checkInputs validates the run arguments every entry point shares.
func checkInputs(x *tensor.COO, opt Options) error {
	switch {
	case opt.Rank <= 0:
		return errors.New("cpd: Rank must be positive")
	case x.Order() < 2:
		return errors.New("cpd: tensor order must be at least 2")
	case x.NNZ() == 0:
		return errors.New("cpd: empty tensor")
	}
	return nil
}

// run is the ALS loop shared by Run and RunDist (ex is the process's row
// exchange) and by Resume (rs carries the checkpointed loop state; opt.Init
// holds the checkpointed factors). Only a watched run builds the phase
// clock, the CollectStats breakdown and the observers of opt; a sharded
// run watches process 0 alone.
func run(x *tensor.COO, eng engine.Engine, opt Options, rs *resumeState, ex exchange, watched bool) (*Result, error) {
	if err := checkInputs(x, opt); err != nil {
		return nil, err
	}
	n := x.Order()
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 50
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-5
	}
	r := opt.Rank

	if opt.NonNegative {
		for _, v := range x.Vals {
			if v < 0 {
				return nil, errors.New("cpd: NonNegative requires a non-negative tensor")
			}
		}
	}

	sweep, err := sweepOrder(opt.ModeOrder, n)
	if err != nil {
		return nil, err
	}

	factors, err := initFactors(x, opt)
	if err != nil {
		return nil, err
	}

	lambda := make([]float64, r)
	// Fit starts at NaN, not 0: a run cancelled before the first fit
	// computation must not report a (perfect-looking for an exact model)
	// fit of zero. The first completed iteration overwrites it.
	res := &Result{Factors: factors, Fit: math.NaN()}
	startIter := 1
	prevFit := math.Inf(-1)
	if rs != nil {
		startIter = rs.startIter
		prevFit = rs.prevFit
		copy(lambda, rs.lambda)
		res.Iters = startIter - 1
		res.Fit = rs.prevFit
		if opt.TrackFit {
			res.FitTrace = append([]float64(nil), rs.fitTrace...)
		}
	}
	var clock *phaseClock
	var observers []observer
	if watched {
		if opt.CollectStats {
			res.Stats = &RunStats{ModeMTTKRP: make([]PhaseStats, n)}
		}
		clock = newPhaseClock(res.Stats, opt.Tracer, opt.Metrics, n)
		if observers, err = newObservers(x, eng, opt, res.Stats, startIter, sweep); err != nil {
			return nil, err
		}
	}

	start := time.Now()

	// Precompute the Gram matrices W⁽ⁿ⁾ = U⁽ⁿ⁾ᵀU⁽ⁿ⁾. The initial factors are
	// replicated, so every process computes the same Grams locally.
	clock.start()
	var gs dense.GramScratch // per-worker Gram accumulators, reused every mode
	grams := make([]*dense.Matrix, n)
	for m := 0; m < n; m++ {
		grams[m] = gs.Gram(factors[m], nil, opt.Workers)
	}
	clock.tick(PhaseGram)

	normX := x.Norm()
	clock.tick(PhaseFit)
	m := dense.New(maxDim(x.Dims), r) // MTTKRP output, reused across modes
	mm := &dense.Matrix{Cols: r}      // m's header at the current mode's height
	h := dense.New(r, r)
	had := dense.New(r, r)    // ∘ₙ W⁽ⁿ⁾ scratch of the fit
	inv := make([]float64, r) // reciprocal column norms
	// The one-float all-reduce buffer: ⟨X, X̂⟩, then the stop vote.
	scalar := make([]float64, 1)
	// The solver keeps h's Cholesky factor between modes.
	var solver dense.SPDSolver

	var prevOps int64
	if clock != nil {
		prevOps = eng.Stats().HadamardOps
	}
	lastMode := sweep[n-1]
	// why and endErr are how the run ends; an engine or exchange error
	// returns at once, with no Result.
	why, endErr := exitDone, error(nil)
loop:
	for iter := startIter; iter <= maxIters; iter++ {
		// The last mode's MTTKRP rows and normalized factor rows, for the
		// fit's inner product ⟨X, X̂⟩.
		var lastM, lastU *dense.Matrix
		for _, mode := range sweep {
			if opt.Ctx != nil && opt.Ctx.Err() != nil {
				// The last completed iteration is boundary-consistent even
				// though this sweep is mid-flight, so the checkpointer still
				// persists it: a cancellation (e.g. a SIGTERM routed through
				// Ctx) loses no finished work.
				res.Stopped = true
				why, endErr = exitCancelled, opt.Ctx.Err()
				break loop
			}
			mm.Rows, mm.Data = x.Dims[mode], m.Data[:x.Dims[mode]*r]
			t0 := time.Now()
			if err := eng.MTTKRP(mode, factors, mm); err != nil {
				return nil, err
			}
			d := time.Since(t0)
			res.MTTKRPTime += d
			if clock != nil {
				ops := eng.Stats().HadamardOps
				clock.mttkrp(mode, d, ops-prevOps)
				prevOps = ops
			}
			// From here on the update touches only the rows this process
			// owns: M's summed rows and U's rows (all of them on one node).
			mOwn, u, err := ex.Reduce(mode, iter, mm, factors[mode])
			if err != nil {
				return nil, err
			}

			// H = ∘_{i≠mode} W⁽ⁱ⁾.
			clock.start()
			h.Fill(1)
			for i := 0; i < n; i++ {
				if i != mode {
					dense.Hadamard(h, grams[i], h)
				}
			}
			clock.tick(PhaseGram)
			if opt.NonNegative {
				// Multiplicative rule: U ← U ∘ M ⁄ (U·H + ridge·U + ε).
				denom := dense.MatMul(u, h, nil, opt.Workers)
				for i := range u.Data {
					d := denom.Data[i] + opt.Ridge*u.Data[i] + epsMU
					u.Data[i] *= mOwn.Data[i] / d
				}
			} else {
				// Least squares: U⁽ᵐᵒᵈᵉ⁾ = M·(H + ridge·I)⁺. Rows are
				// independent given the Cholesky of H, so a process solving
				// only its rows matches the full solve row for row.
				if opt.Ridge > 0 {
					for i := 0; i < r; i++ {
						h.Set(i, i, h.At(i, i)+opt.Ridge)
					}
				}
				u.CopyFrom(mOwn)
				solver.Solve(h, u, opt.Workers)
			}
			clock.tick(PhaseSolve)

			// dense.NormalizeColumns, split around the all-reduce of the
			// column sums of squares.
			clear(lambda)
			for i := 0; i < u.Rows; i++ {
				for j, v := range u.Row(i) {
					lambda[j] += v * v
				}
			}
			if err := ex.AllReduce(lambda, dist.TagNorm, mode, iter); err != nil {
				return nil, err
			}
			for j := range lambda {
				lambda[j] = math.Sqrt(lambda[j])
				inv[j] = 1 // leave zero columns as-is
				if lambda[j] > 0 {
					inv[j] = 1 / lambda[j]
				}
			}
			for i := 0; i < u.Rows; i++ {
				row := u.Row(i)
				for j := range row {
					row[j] *= inv[j]
				}
			}
			clock.tick(PhaseNormalize)
			// λ is replicated after the all-reduce, so every process of a
			// sharded run stops here together.
			if !allFinite(lambda) {
				why, endErr = exitFailed, &NonFiniteError{Iter: iter, Mode: mode}
				break loop
			}
			if err := ex.Expand(mode, iter, u, factors[mode]); err != nil {
				return nil, err
			}
			// Unowned rows are empty rows, zero after their first update, so
			// the partial Grams over owned rows sum to the full Gram.
			gs.Gram(u, grams[mode], opt.Workers)
			if err := ex.AllReduce(grams[mode].Data, dist.TagGram, mode, iter); err != nil {
				return nil, err
			}
			eng.FactorUpdated(mode)
			clock.tick(PhaseGram)
			if mode == lastMode {
				lastM, lastU = mOwn, u
			}
		}

		clock.start()
		scalar[0] = innerProduct(lambda, lastM, lastU)
		if err := ex.AllReduce(scalar, dist.TagFit, -1, iter); err != nil {
			return nil, err
		}
		fit := computeFit(normX, lambda, grams, had, scalar[0])
		clock.tick(PhaseFit)
		if math.IsNaN(fit) || math.IsInf(fit, 0) {
			why, endErr = exitFailed, &NonFiniteError{Iter: iter, Mode: -1}
			break
		}
		if opt.TrackFit {
			res.FitTrace = append(res.FitTrace, fit)
		}
		res.Iters = iter
		res.Fit = fit
		ev := iterEvent{
			iter: iter, fit: fit, prevFit: prevFit, tol: tol,
			lambda: lambda, grams: grams, factors: factors, fitTrace: res.FitTrace,
			elapsed: time.Since(start), mttkrpTime: res.MTTKRPTime,
		}
		stop := false
		for _, o := range observers {
			s, oerr := o.iteration(ev)
			if oerr != nil {
				why, endErr = exitFailed, oerr
				break loop
			}
			stop = stop || s
		}
		// Every process computes the identical fit from replicated state,
		// so a sharded run takes this branch unanimously, with no vote.
		if math.Abs(fit-prevFit) < tol {
			res.Converged = true
			break
		}
		// A Progress callback runs on the watched process alone, so a
		// sharded run votes: every process all-reduces process 0's stop
		// flag (the others contribute 0) and all stop at this iteration.
		if opt.Progress != nil {
			scalar[0] = 0
			if stop {
				scalar[0] = 1
			}
			if err := ex.AllReduce(scalar, dist.TagStop, -1, iter); err != nil {
				return nil, err
			}
			stop = scalar[0] > 0
		}
		if stop {
			res.Stopped = true
			break
		}
		prevFit = fit
	}
	res.Lambda = lambda
	res.TotalTime = time.Since(start)
	for i := len(observers) - 1; i >= 0; i-- {
		if oerr := observers[i].end(res, why); oerr != nil {
			endErr = errors.Join(endErr, oerr)
		}
	}
	return res, endErr
}

// NonFiniteError reports that the numerics of a run went NaN or Inf: λ after
// normalizing mode Mode in iteration Iter, or, with Mode −1, that
// iteration's fit. The run stops before the iteration's checkpoint
// boundary, so the last checkpoint written holds the last finite state.
type NonFiniteError struct {
	Iter int
	Mode int
}

func (e *NonFiniteError) Error() string {
	if e.Mode < 0 {
		return fmt.Sprintf("cpd: non-finite fit at iteration %d", e.Iter)
	}
	return fmt.Sprintf("cpd: non-finite lambda at iteration %d, mode %d", e.Iter, e.Mode)
}

// allFinite reports whether no entry of v is NaN or ±Inf.
func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// measuredFrom converts the run's engine-counter deltas and per-phase
// breakdown into the audit layer's Measured record: totals averaged over
// the n iterations this run completed (on Resume, not those of the run
// that wrote the checkpoint) so they are comparable with the model's
// per-iteration predictions.
func measuredFrom(s, base engine.Stats, res *Result, n int) audit.Measured {
	iters := float64(n)
	m := audit.Measured{
		Iters:                n,
		OpsPerIter:           float64(s.HadamardOps-base.HadamardOps) / iters,
		MTTKRPSecondsPerIter: float64(s.MTTKRPNS-base.MTTKRPNS) / 1e9 / iters,
		PeakValueBytes:       s.PeakValueBytes,
		IndexBytes:           s.IndexBytes,
	}
	if res.Stats != nil {
		m.PhaseSeconds = make(map[string]float64, NumPhases)
		for p := Phase(0); p < NumPhases; p++ {
			m.PhaseSeconds[p.String()] = res.Stats.Phases[p].Time.Seconds()
		}
		m.ModeMTTKRPSeconds = make([]float64, len(res.Stats.ModeMTTKRP))
		for mode, mp := range res.Stats.ModeMTTKRP {
			m.ModeMTTKRPSeconds[mode] = mp.Time.Seconds() / iters
		}
	}
	return m
}

// sweepOrder validates the sub-iteration mode order (nil = natural).
func sweepOrder(order []int, n int) ([]int, error) {
	if order == nil {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	if !tensor.IsPermutation(order, n) {
		return nil, fmt.Errorf("cpd: ModeOrder %v is not a permutation of %d modes", order, n)
	}
	return order, nil
}

// initFactors builds the initial factor matrices.
func initFactors(x *tensor.COO, opt Options) ([]*dense.Matrix, error) {
	n := x.Order()
	if opt.Init != nil {
		if len(opt.Init) != n {
			return nil, fmt.Errorf("cpd: %d initial factors for order-%d tensor", len(opt.Init), n)
		}
		factors := make([]*dense.Matrix, n)
		for m, f := range opt.Init {
			if f.Rows != x.Dims[m] || f.Cols != opt.Rank {
				return nil, fmt.Errorf("cpd: initial factor %d is %dx%d, want %dx%d", m, f.Rows, f.Cols, x.Dims[m], opt.Rank)
			}
			factors[m] = f.Clone()
		}
		return factors, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	factors := make([]*dense.Matrix, n)
	for m := 0; m < n; m++ {
		factors[m] = dense.Random(x.Dims[m], opt.Rank, rng)
	}
	return factors, nil
}

// innerProduct is ⟨X, X̂⟩ = Σᵣ λᵣ Σᵢ M⁽ᴺ⁾(i,r)·U⁽ᴺ⁾(i,r) over the given
// rows, where M⁽ᴺ⁾ is the final mode's MTTKRP result and U⁽ᴺ⁾ the freshly
// normalized factor.
func innerProduct(lambda []float64, lastM, lastFactor *dense.Matrix) float64 {
	inner := 0.0
	for i := 0; i < lastM.Rows; i++ {
		mrow := lastM.Row(i)
		frow := lastFactor.Row(i)
		for j := range lambda {
			inner += lambda[j] * mrow[j] * frow[j]
		}
	}
	return inner
}

// computeFit evaluates fit = 1 − ‖X − X̂‖/‖X‖ without touching the tensor,
// from ‖X̂‖² = λᵀ(∘ₙ W⁽ⁿ⁾)λ and the inner product ⟨X, X̂⟩. had is R×R
// scratch for ∘ₙ W⁽ⁿ⁾.
func computeFit(normX float64, lambda []float64, grams []*dense.Matrix, had *dense.Matrix, inner float64) float64 {
	r := len(lambda)
	had.CopyFrom(grams[0])
	for _, g := range grams[1:] {
		dense.Hadamard(had, g, had)
	}
	normEst2 := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			normEst2 += lambda[i] * lambda[j] * had.At(i, j)
		}
	}
	res2 := normX*normX + normEst2 - 2*inner
	if res2 < 0 {
		res2 = 0
	}
	if normX == 0 {
		return 0
	}
	return 1 - math.Sqrt(res2)/normX
}

func maxDim(dims []int) int {
	m := 0
	for _, d := range dims {
		if d > m {
			m = d
		}
	}
	return m
}

// Reconstruct evaluates the CP model Σᵣ λᵣ · u¹ᵣ ∘ … ∘ uᴺᵣ at one coordinate.
func Reconstruct(res *Result, idx []tensor.Index) float64 {
	v := 0.0
	for r := range res.Lambda {
		p := res.Lambda[r]
		for m, f := range res.Factors {
			p *= f.At(int(idx[m]), r)
		}
		v += p
	}
	return v
}

// ResidualNorm computes ‖X − X̂‖ exactly by streaming the nonzeros and
// accounting for the model mass off the sparsity pattern:
// ‖X−X̂‖² = Σ_{nz} (x−x̂)² − Σ_{nz} x̂² + ‖X̂‖². Exact and O(nnz·N·R);
// used in tests to validate the fast fit formula.
func ResidualNorm(x *tensor.COO, res *Result) float64 {
	grams := make([]*dense.Matrix, len(res.Factors))
	for m, f := range res.Factors {
		grams[m] = dense.Gram(f, nil, 0)
	}
	hadAll := dense.HadamardAll(grams)
	normEst2 := 0.0
	r := len(res.Lambda)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			normEst2 += res.Lambda[i] * res.Lambda[j] * hadAll.At(i, j)
		}
	}
	onPattern := 0.0
	estOnPattern := 0.0
	idx := make([]tensor.Index, x.Order())
	for k := 0; k < x.NNZ(); k++ {
		for m := range idx {
			idx[m] = x.Inds[m][k]
		}
		est := Reconstruct(res, idx)
		d := x.Vals[k] - est
		onPattern += d * d
		estOnPattern += est * est
	}
	res2 := onPattern - estOnPattern + normEst2
	if res2 < 0 {
		res2 = 0
	}
	return math.Sqrt(res2)
}
