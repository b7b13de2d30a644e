package exp

import (
	"fmt"
	"math"
	"time"

	"adatm"
	"adatm/internal/audit"
	"adatm/internal/memo"
)

// E6Memory reports each engine's auxiliary storage relative to the raw COO
// tensor footprint.
func E6Memory(cfg Config) *Table {
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("auxiliary memory after one CP-ALS iteration (R=%d)", cfg.rank()),
		Columns: []string{"tensor", "coo bytes", "engine", "index", "peak values", "aux/coo"},
	}
	for _, ds := range ProfileSuite(cfg) {
		x := ds.X
		cooBytes := int64(x.NNZ()) * int64(4*x.Order()+8)
		for _, e := range EngineSet(x, cfg) {
			TimeSweeps(e, x, cfg.rank(), 1, 17) // populate caches/counters
			s := e.Stats()
			aux := s.IndexBytes + s.PeakValueBytes
			t.Add(ds.Name, fmtMiB(cooBytes), e.Name(), fmtMiB(s.IndexBytes), fmtMiB(s.PeakValueBytes),
				fmt.Sprintf("%.2f", float64(aux)/float64(cooBytes)))
		}
	}
	t.Notes = append(t.Notes, "coo bytes = nnz·(4·N + 8); the coo engine needs no auxiliary structures")
	return t
}

// E7ModelAccuracy validates the cost model through the audit layer: one
// audit.Decision per tensor (the scored plan), one reconciliation per
// candidate (measured ops from the engine's exact counters, measured time
// from timed sweeps), and the table derived from the resulting audit
// records — the same machinery production runs use, so the offline
// validation and the always-on audit can never drift apart. With
// Config.AuditW set (adabench -auditfile), every record is appended to the
// JSONL decision ledger.
func E7ModelAccuracy(cfg Config) *Table {
	t := &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("model accuracy (R=%d): prediction error, rank correlation, top-1 hit", cfg.rank()),
		Columns: []string{"tensor", "max |pred-exact|/exact", "spearman(pred, time)", "model pick", "measured best", "top1", "penalty"},
	}
	ledger := audit.NewLedger(cfg.AuditW)
	for _, ds := range ProfileSuite(cfg) {
		x := ds.X
		plan := adatm.PlanFor(x, cfg.rank(), 0)
		dec := audit.NewDecision(plan)
		var predOps, measured []float64
		var names []string
		maxRelErr := 0.0
		for _, c := range plan.Candidates {
			// Every candidate runs with the plan's retention and streaming,
			// so its measured peak and index bytes match the predictions
			// Reconcile compares.
			eng, err := memo.NewWithConfig(x, c.Strategy, memo.Config{Workers: cfg.Workers, Name: c.Name, RetainBuffers: plan.Retain, StreamRoot: plan.Stream})
			if err != nil {
				panic(err)
			}
			exact := eng.PerIterationOps(cfg.rank())
			d := TimeSweeps(eng, x, cfg.rank(), 2, 19)
			s := eng.Stats()
			rep := audit.ReconcileCandidate(dec, c.Name, audit.Measured{
				Iters:                1,
				OpsPerIter:           float64(exact),
				MTTKRPSecondsPerIter: d.Seconds(),
				PeakValueBytes:       s.PeakValueBytes,
				IndexBytes:           s.IndexBytes,
			})
			if err := ledger.Append(audit.Record{Decision: dec, Report: rep}); err != nil {
				panic(err)
			}
			q, _ := rep.Quantity(audit.QOpsPerIter)
			if re := math.Abs(q.RelErr); re > maxRelErr {
				maxRelErr = re
			}
			predOps = append(predOps, float64(c.Pred.Ops))
			measured = append(measured, d.Seconds())
			names = append(names, c.Name)
		}
		bestIdx := 0
		for i := range measured {
			if measured[i] < measured[bestIdx] {
				bestIdx = i
			}
		}
		pickIdx := 0
		for i, n := range names {
			if n == plan.Chosen.Name {
				pickIdx = i
			}
		}
		penalty := measured[pickIdx]/measured[bestIdx] - 1
		t.Add(ds.Name, fmt.Sprintf("%.1f%%", 100*maxRelErr),
			fmt.Sprintf("%.2f", spearman(predOps, measured)),
			names[pickIdx], names[bestIdx], fmt.Sprint(pickIdx == bestIdx),
			fmt.Sprintf("%.1f%%", 100*penalty))
	}
	t.Notes = append(t.Notes,
		"pred-exact error isolates the sketch (the op formula is exact given exact counts)",
		"penalty = time(model pick)/time(measured best) − 1",
		"each (decision, candidate) pair is an audit.Record; adabench -auditfile captures them as JSONL")
	return t
}

// E8BudgetAdaptivity shows the selector degrading gracefully as the memory
// budget shrinks.
func E8BudgetAdaptivity(cfg Config) *Table {
	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("adaptive strategy vs memory budget (enron4d profile, R=%d)", cfg.rank()),
		Columns: []string{"budget", "chosen", "tree", "pred ops", "pred aux bytes", "sweep time"},
	}
	ds := ProfileSuite(cfg, "enron4d")[0]
	x := ds.X
	unbounded := adatm.PlanFor(x, cfg.rank(), 0)
	full := unbounded.Chosen.Pred.IndexBytes + unbounded.Chosen.Pred.PeakValueBytes
	for _, frac := range []float64{0, 1.0, 0.75, 0.5, 0.25, 0.1} {
		budget := int64(0)
		if frac > 0 {
			budget = int64(frac * float64(full))
		}
		plan := adatm.PlanFor(x, cfg.rank(), budget)
		// The engine takes the plan's buffer decisions, so each row times
		// the layout the budgeted plan would run.
		eng, err := memo.NewWithConfig(x, plan.Chosen.Strategy, memo.Config{Workers: cfg.Workers, Name: plan.Chosen.Name,
			RetainBuffers: plan.Retain, StreamRoot: plan.Stream})
		if err != nil {
			panic(err)
		}
		d := TimeSweeps(eng, x, cfg.rank(), 2, 23)
		label := "unbounded"
		if budget > 0 {
			label = fmt.Sprintf("%.0f%% of full", 100*frac)
		}
		t.Add(label, plan.Chosen.Name, plan.Chosen.Strategy.String(), plan.Chosen.Pred.Ops, fmtMiB(plan.AuxBytes()), fmtDur(d))
	}
	return t
}

// E9SymbolicCost quantifies the one-time symbolic preprocessing against the
// per-iteration saving over the CSF baseline.
func E9SymbolicCost(cfg Config) *Table {
	t := &Table{
		ID:      "E9",
		Title:   fmt.Sprintf("symbolic (one-time) cost vs per-iteration saving (R=%d)", cfg.rank()),
		Columns: []string{"tensor", "engine", "symbolic", "sweep", "csf sweep", "amortize after"},
	}
	for _, ds := range ProfileSuite(cfg) {
		x := ds.X
		csfEng, err := adatm.NewEngine(x, adatm.EngineCSF, adatm.EngineConfig{Rank: cfg.rank(), Workers: cfg.Workers})
		if err != nil {
			panic(err)
		}
		csfSweep := TimeSweeps(csfEng, x, cfg.rank(), 2, 29)
		for _, kind := range []adatm.EngineKind{adatm.EngineMemoBalanced, adatm.EngineAdaptive} {
			e, err := adatm.NewEngine(x, kind, adatm.EngineConfig{Rank: cfg.rank(), Workers: cfg.Workers})
			if err != nil {
				panic(err)
			}
			sweep := TimeSweeps(e, x, cfg.rank(), 2, 29)
			sym := time.Duration(e.Stats().SymbolicNS)
			amortize := "never"
			if saving := csfSweep - sweep; saving > 0 {
				amortize = fmt.Sprintf("%d iters", int64(math.Ceil(float64(sym)/float64(saving))))
			}
			t.Add(ds.Name, e.Name(), fmtDur(sym), fmtDur(sweep), fmtDur(csfSweep), amortize)
		}
	}
	t.Notes = append(t.Notes, "symbolic cost is paid once per tensor and reused across ranks, initializations, and restarts")
	return t
}

// E10Convergence verifies end-to-end that every engine drives CP-ALS to the
// same solution, and that a planted low-rank signal is recovered.
func E10Convergence(cfg Config) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "CP-ALS convergence equivalence across engines (planted rank-4 tensor, R=4)",
		Columns: []string{"engine", "iters", "final fit", "|fit - reference|"},
	}
	x := adatm.Generate(adatm.GenSpec{
		Name: "planted", Dims: []int{60, 50, 40, 30}, NNZ: 60000,
		Skew: []float64{0.3, 0.3, 0.3, 0.3}, Rank: 4, Noise: 0.01, Seed: 424 + cfg.Seed,
	})
	var refFit float64
	for i, k := range adatm.EngineKinds() {
		res, err := adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 30, Tol: 1e-9, Seed: 31, Workers: cfg.Workers, Engine: k})
		if err != nil {
			panic(err)
		}
		if i == 0 {
			refFit = res.Fit
		}
		t.Add(string(k), res.Iters, fmt.Sprintf("%.6f", res.Fit), fmt.Sprintf("%.2e", math.Abs(res.Fit-refFit)))
	}
	t.Notes = append(t.Notes, "identical seeds: all engines must follow the same ALS trajectory (differences are FP reassociation only)")
	return t
}

// Runner is an experiment entry point.
type Runner struct {
	ID   string
	Desc string
	Run  func(Config) *Table
}

// Registry lists every experiment in run order.
func Registry() []Runner {
	return []Runner{
		{"T1", "dataset suite statistics", T1DatasetTable},
		{"E1", "MTTKRP sweep time per engine", E1MTTKRPTime},
		{"E2", "CP-ALS per-iteration time", E2CPALSIter},
		{"E3", "order scaling", E3OrderScaling},
		{"E4", "rank sweep", E4RankSweep},
		{"E5", "thread scaling", E5ThreadScaling},
		{"E6", "memory footprint", E6Memory},
		{"E7", "model accuracy", E7ModelAccuracy},
		{"E8", "memory-budget adaptivity", E8BudgetAdaptivity},
		{"E9", "symbolic preprocessing cost", E9SymbolicCost},
		{"E10", "convergence equivalence", E10Convergence},
		{"E11", "sketch-size ablation", E11SketchSensitivity},
		{"E12", "overlap-sensitivity ablation", E12OverlapSensitivity},
		{"E13", "nnz scaling", E13NNZScaling},
		{"E15", "symbolic throughput ablation", E15SymbolicThroughput},
		{"E16", "mode-permutation ablation", E16PermutationAblation},
		{"E17", "initialization quality", E17InitQuality},
		{"E19", "statistical selector validation", E19SelectorRegret},
		{"E20", "roofline time-model ablation", E20TimeModel},
		{"E21", "partitioner quality (distributed sim)", E21PartitionerQuality},
		{"E22", "simulated strong scaling", E22SimulatedScaling},
	}
}

// Find returns the runner with the given id (case-sensitive) or nil.
func Find(id string) *Runner {
	for _, r := range Registry() {
		if r.ID == id {
			return &r
		}
	}
	return nil
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, r := range reg {
		ids[i] = r.ID
	}
	return ids
}
