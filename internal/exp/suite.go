package exp

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"adatm"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/tensor"
)

// Config controls the experiment suite.
type Config struct {
	// Quick scales every dataset down (~8x fewer nonzeros) for CI-speed
	// runs; the shapes and relative comparisons survive scaling.
	Quick bool
	// Workers is the parallel width used by the engines (<= 0: GOMAXPROCS).
	Workers int
	// Rank is the CP rank used where an experiment does not sweep it
	// (default 16).
	Rank int
	// Seed offsets the generator seeds for robustness runs.
	Seed int64
	// AuditW, when non-nil, receives the model-audit decision ledger (JSONL
	// audit.Records) from the experiments that exercise the cost model
	// (E7); adabench wires its -auditfile here.
	AuditW io.Writer
	// Health, when non-nil, builds a fresh numerical-health probe for every
	// full CP-ALS run of the experiments that fit models (E2). The run
	// label ("dataset/engine") distinguishes the runs in a shared iteration
	// stream; adabench wires its -health flag here.
	Health func(run string) *adatm.HealthProbe
}

func (c Config) rank() int {
	if c.Rank <= 0 {
		return 16
	}
	return c.Rank
}

// Dataset is one tensor of the evaluation suite.
type Dataset struct {
	Name string
	X    *tensor.COO
}

// ProfileSuite materializes the named real-shape profiles (all of them when
// names is empty).
func ProfileSuite(cfg Config, names ...string) []Dataset {
	specs := tensor.Profiles
	if len(names) > 0 {
		specs = nil
		for _, n := range names {
			p, err := tensor.Profile(n)
			if err != nil {
				panic(err)
			}
			specs = append(specs, p)
		}
	}
	out := make([]Dataset, 0, len(specs))
	for _, p := range specs {
		if cfg.Quick {
			p.NNZ /= 8
		}
		p.Seed += cfg.Seed
		out = append(out, Dataset{Name: p.Name, X: tensor.Generate(p)})
	}
	return out
}

// RandomOrderSuite generates uniform-dimension clustered random tensors of
// the given orders (the higher-order scaling workload).
func RandomOrderSuite(cfg Config, orders []int) []Dataset {
	nnz := 200000
	if cfg.Quick {
		nnz = 25000
	}
	out := make([]Dataset, 0, len(orders))
	for _, n := range orders {
		dim := 1 << 14
		if cfg.Quick {
			dim = 1 << 11
		}
		x := tensor.RandomClustered(n, dim, nnz, 0.8, 1000+int64(n)+cfg.Seed)
		out = append(out, Dataset{Name: fmt.Sprintf("random%dd", n), X: x})
	}
	return out
}

// EngineSet builds the engines compared throughout the evaluation, in
// report order.
func EngineSet(x *tensor.COO, cfg Config) []engine.Engine {
	kinds := adatm.EngineKinds()
	out := make([]engine.Engine, 0, len(kinds))
	for _, k := range kinds {
		e, err := adatm.NewEngine(x, k, adatm.EngineConfig{Rank: cfg.rank(), Workers: cfg.Workers})
		if err != nil {
			panic(err)
		}
		out = append(out, e)
	}
	return out
}

// randomFactors builds one random factor matrix per mode.
func randomFactors(x *tensor.COO, r int, seed int64) []*dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]*dense.Matrix, x.Order())
	for m := range fs {
		fs[m] = dense.Random(x.Dims[m], r, rng)
	}
	return fs
}

// SweepOnce runs one full MTTKRP sweep (every mode, with the ALS
// invalidation protocol) and returns the in-kernel time measured by the
// engine's own MTTKRPNS counter — not an external stopwatch — so harness
// overhead (loop, header construction, invalidation) never pollutes the
// kernel comparison. The factors are not modified; FactorUpdated is still
// issued so memoizing engines follow their steady-state
// compute-once-per-node pattern.
func SweepOnce(e engine.Engine, x *tensor.COO, factors []*dense.Matrix, out *dense.Matrix) time.Duration {
	return sweepOrdered(e, x, factors, out, nil)
}

// sweepOrdered is SweepOnce visiting the modes in the given order (nil:
// natural), the order a memo tree over another mode order needs to reuse
// every node.
func sweepOrdered(e engine.Engine, x *tensor.COO, factors []*dense.Matrix, out *dense.Matrix, order []int) time.Duration {
	startNS := e.Stats().MTTKRPNS
	for i := 0; i < x.Order(); i++ {
		mode := i
		if order != nil {
			mode = order[i]
		}
		mm := &dense.Matrix{Rows: x.Dims[mode], Cols: out.Cols, Data: out.Data[:x.Dims[mode]*out.Cols]}
		if err := e.MTTKRP(mode, factors, mm); err != nil {
			panic(err)
		}
		e.FactorUpdated(mode)
	}
	return time.Duration(e.Stats().MTTKRPNS - startNS)
}

// TimeSweeps warms the engine with one sweep, then returns the *minimum* of
// reps timed sweeps (the minimum is the standard noise-resistant
// microbenchmark statistic: external interference only ever adds time).
func TimeSweeps(e engine.Engine, x *tensor.COO, r, reps int, seed int64) time.Duration {
	return timeSweepsOrdered(e, x, r, reps, seed, nil)
}

// timeSweepsOrdered is TimeSweeps with an explicit mode sweep order (nil:
// natural).
func timeSweepsOrdered(e engine.Engine, x *tensor.COO, r, reps int, seed int64, order []int) time.Duration {
	fs := randomFactors(x, r, seed)
	out := dense.New(maxDim(x.Dims), r)
	sweepOrdered(e, x, fs, out, order) // warm-up: symbolic reuse, allocator, caches
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		if d := sweepOrdered(e, x, fs, out, order); best == 0 || d < best {
			best = d
		}
	}
	return best
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

// spearman computes the Spearman rank correlation of two equally long
// series.
func spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra := ranks(a)
	rb := ranks(b)
	n := float64(len(a))
	var d2 float64
	for i := range ra {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for rank, i := range idx {
		r[i] = float64(rank)
	}
	return r
}

// fmtDur renders a duration in milliseconds with 3 significant digits.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3gms", float64(d.Nanoseconds())/1e6)
}

// fmtMiB renders a byte count in MiB.
func fmtMiB(b int64) string {
	return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
}
