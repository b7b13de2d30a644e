package adatm_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"adatm"
)

func testTensor(t *testing.T) *adatm.Tensor {
	t.Helper()
	return adatm.Generate(adatm.GenSpec{
		Name: "facade", Dims: []int{40, 30, 20, 10}, NNZ: 5000,
		Skew: []float64{0.5, 0.5, 0.5, 0.2}, Rank: 3, Noise: 0.05, Seed: 5,
	})
}

func TestEngineKindsConstructible(t *testing.T) {
	x := testTensor(t)
	for _, kind := range adatm.EngineKinds() {
		e, err := adatm.NewEngine(x, kind, adatm.EngineConfig{Rank: 8})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if e.Name() == "" {
			t.Errorf("%s: empty engine name", kind)
		}
	}
}

func TestNewEngineUnknownKind(t *testing.T) {
	x := testTensor(t)
	if _, err := adatm.NewEngine(x, "warp-drive", adatm.EngineConfig{}); err == nil {
		t.Fatal("unknown engine kind accepted")
	}
}

func TestDecomposeAllEnginesAgree(t *testing.T) {
	x := testTensor(t)
	var ref float64
	for i, kind := range adatm.EngineKinds() {
		res, err := adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 5, Tol: 1e-12, Seed: 9, Engine: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if i == 0 {
			ref = res.Fit
			continue
		}
		if math.Abs(res.Fit-ref) > 1e-8 {
			t.Errorf("%s: fit %.10f != reference %.10f", kind, res.Fit, ref)
		}
	}
}

func TestDecomposeDefaultsToAdaptive(t *testing.T) {
	x := testTensor(t)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Errorf("iters = %d", res.Iters)
	}
}

func TestPlanForBudget(t *testing.T) {
	x := testTensor(t)
	plan := adatm.PlanFor(x, 16, 0)
	if plan.Chosen.Strategy == nil || len(plan.Candidates) < 3 {
		t.Fatalf("degenerate plan: %+v", plan)
	}
	if !strings.Contains(plan.String(), "chosen") {
		t.Error("plan report does not mark the chosen candidate")
	}
	// The adaptive engine built from a custom strategy must honor it.
	e, err := adatm.NewEngine(x, adatm.EngineAdaptive, adatm.EngineConfig{Rank: 16, Strategy: plan.Candidates[len(plan.Candidates)-1].Strategy})
	if err != nil {
		t.Fatal(err)
	}
	if e == nil {
		t.Fatal("nil engine")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x := testTensor(t)
	path := filepath.Join(t.TempDir(), "x.tns.gz")
	if err := adatm.Save(path, x); err != nil {
		t.Fatal(err)
	}
	y, err := adatm.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if y.NNZ() != x.NNZ() {
		t.Fatalf("nnz %d != %d after round trip", y.NNZ(), x.NNZ())
	}
}

func TestProfilesExposed(t *testing.T) {
	if len(adatm.Profiles()) == 0 {
		t.Fatal("no profiles")
	}
	if _, err := adatm.Profile("flickr4d"); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructExposed(t *testing.T) {
	x := testTensor(t)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 4, Seed: 2, Engine: adatm.EngineCSF})
	if err != nil {
		t.Fatal(err)
	}
	v := adatm.Reconstruct(res, []adatm.Index{1, 2, 3, 4})
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("non-finite reconstruction %v", v)
	}
}

func TestDecomposePermutedMatchesOthers(t *testing.T) {
	x := testTensor(t)
	ref, err := adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 6, Tol: 1e-12, Seed: 21, Engine: adatm.EngineCSF})
	if err != nil {
		t.Fatal(err)
	}
	res, err := adatm.DecomposePermuted(x, adatm.Options{Rank: 4, MaxIters: 6, Tol: 1e-12, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// A permuted sweep order changes the ALS trajectory, so the fits need
	// not match exactly — but both must be finite, plausible fits of the
	// same data from the same seed.
	if math.IsNaN(res.Fit) || res.Fit <= -1 || res.Fit > 1 {
		t.Fatalf("implausible permuted fit %v", res.Fit)
	}
	if math.Abs(res.Fit-ref.Fit) > 0.2 {
		t.Errorf("permuted fit %.4f far from csf fit %.4f", res.Fit, ref.Fit)
	}
}

// TestDecomposePermutedPin pins the permuted run bit for bit at Workers=1
// under an unbounded budget: the hashes are those of the run that built its
// engine over a permuted copy of the tensor, so the chosen (order, tree)
// pair, the engine's arithmetic and the sweep order are all unchanged. The
// correlated tensor's choice is a non-natural order; the facade tensor's
// ties with the natural grouping.
func TestDecomposePermutedPin(t *testing.T) {
	cases := []struct {
		name string
		x    *adatm.Tensor
		tree string
		want uint64
	}{
		{"facade", testTensor(t), "([3,2] [1,0])", 0x7debae28f25c5bd9},
		{"correlated", correlatedTensor(4000, 7), "([3,1] [0,2])", 0x8ead30a22d7f9d7b},
	}
	for _, tc := range cases {
		plan := adatm.PlanPermutedFor(tc.x, 5, 0)
		if got := plan.Chosen.Strategy.String(); got != tc.tree {
			t.Errorf("%s: chose %s %s, want %s", tc.name, plan.Chosen.Name, got, tc.tree)
		}
		res, err := adatm.DecomposePermuted(tc.x, adatm.Options{Rank: 5, MaxIters: 8, Tol: 1e-14, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := resultHash(res); got != tc.want {
			t.Errorf("%s: result hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// correlatedTensor builds an order-4 tensor whose mode 2 is a near-function
// of mode 0, so the compressible pair is not adjacent.
func correlatedTensor(nnz int, seed int64) *adatm.Tensor {
	rng := rand.New(rand.NewSource(seed))
	dims := []int{60, 50, 60, 40}
	x := adatm.Generate(adatm.GenSpec{Dims: dims, NNZ: nnz, Seed: seed})
	for k := range x.Inds[2] {
		x.Inds[2][k] = adatm.Index((int(x.Inds[0][k])*7 + rng.Intn(3)) % dims[2])
	}
	x.Dedup()
	return x
}

// resultHash folds the float64 bits of λ, every factor entry and the fit
// into one FNV-64a value, so a single comparison pins a run bit for bit.
func resultHash(res *adatm.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range res.Lambda {
		put(v)
	}
	for _, f := range res.Factors {
		for _, v := range f.Data {
			put(v)
		}
	}
	put(res.Fit)
	return h.Sum64()
}

func TestPlanPermutedFor(t *testing.T) {
	x := testTensor(t)
	pp := adatm.PlanPermutedFor(x, 8, 0)
	if len(pp.Candidates) < 3 || pp.Chosen.Strategy == nil {
		t.Fatalf("degenerate permuted plan: %+v", pp)
	}
	if err := pp.Chosen.Strategy.Validate(x.Order()); err != nil {
		t.Fatal(err)
	}
}

func TestModeOrderOption(t *testing.T) {
	x := testTensor(t)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 3, Seed: 2, Engine: adatm.EngineCSF, ModeOrder: []int{3, 1, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Errorf("iters = %d", res.Iters)
	}
	if _, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 1, Engine: adatm.EngineCSF, ModeOrder: []int{0, 0, 1, 2}}); err == nil {
		t.Error("invalid ModeOrder accepted")
	}
}

func TestModelSaveLoadFacade(t *testing.T) {
	x := testTensor(t)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 3, Seed: 4, Engine: adatm.EngineCSF})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := adatm.SaveModel(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := adatm.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := []adatm.Index{1, 2, 3, 4}
	if a, b := adatm.Reconstruct(res, idx), adatm.Reconstruct(got, idx); a != b {
		t.Errorf("reloaded model reconstructs %g, original %g", b, a)
	}
}

func TestNVecsInitFacade(t *testing.T) {
	x := testTensor(t)
	init := adatm.NVecsInit(x, 3, 2, 1, 0)
	res, err := adatm.Decompose(x, adatm.Options{Rank: 3, MaxIters: 3, Engine: adatm.EngineCSF, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Errorf("iters = %d", res.Iters)
	}
}

// TestRetainBuffersFacade: buffer retention and root streaming follow the
// memory budget and never change the numbers. A memo engine built without
// the model retains its intermediates and streams its root children only
// when the budget is unbounded; an order-6 balanced tree's retained sum
// exceeds its two-path peak, so the retaining engine reports the larger
// peak, the streaming one the larger index storage, and both runs agree bit
// for bit.
func TestRetainBuffersFacade(t *testing.T) {
	x := adatm.Generate(adatm.GenSpec{
		Name: "facade6", Dims: []int{12, 11, 10, 9, 8, 7}, NNZ: 3000,
		Skew: []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, Rank: 3, Noise: 0.05, Seed: 6,
	})
	run := func(budget int64) (*adatm.Result, adatm.EngineStats) {
		t.Helper()
		eng, err := adatm.NewEngine(x, adatm.EngineMemoBalanced, adatm.EngineConfig{Rank: 4, MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		res, err := adatm.DecomposeWith(x, eng, adatm.Options{Rank: 4, MaxIters: 4, Tol: 1e-12, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.Stats()
	}
	kept, keptStats := run(0)
	freed, freedStats := run(1)
	if keptStats.PeakValueBytes <= freedStats.PeakValueBytes {
		t.Errorf("retaining peak %d not above the freeing peak %d: retention did not follow the budget",
			keptStats.PeakValueBytes, freedStats.PeakValueBytes)
	}
	if keptStats.IndexBytes <= freedStats.IndexBytes {
		t.Errorf("streaming index bytes %d not above the gathering engine's %d: streaming did not follow the budget",
			keptStats.IndexBytes, freedStats.IndexBytes)
	}
	if math.Float64bits(kept.Fit) != math.Float64bits(freed.Fit) {
		t.Errorf("retaining fit %.17g differs from freeing fit %.17g", kept.Fit, freed.Fit)
	}
	for m := range kept.Factors {
		for i, v := range kept.Factors[m].Data {
			if math.Float64bits(v) != math.Float64bits(freed.Factors[m].Data[i]) {
				t.Fatalf("factor %d entry %d: %v retained, %v freed", m, i, v, freed.Factors[m].Data[i])
			}
		}
	}
}

func TestMemoryBudgetPlumbing(t *testing.T) {
	x := testTensor(t)
	// A tiny budget must still produce a working engine (fallback strategy).
	res, err := adatm.Decompose(x, adatm.Options{Rank: 4, MaxIters: 2, Engine: adatm.EngineAdaptive, MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 2 {
		t.Errorf("iters = %d", res.Iters)
	}
}

func TestResumeFromCheckpoint(t *testing.T) {
	x := testTensor(t)
	opt := adatm.Options{Rank: 4, MaxIters: 10, Tol: 1e-300, Seed: 2, Engine: adatm.EngineCOO, TrackFit: true}
	ref, err := adatm.Decompose(x, opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ck")
	stopped := opt
	stopped.Checkpoint = &adatm.CheckpointConfig{Dir: dir, Every: 1, Retain: 3}
	n := 0
	stopped.Progress = func(adatm.IterStats) bool { n++; return n < 4 }
	if _, err := adatm.Decompose(x, stopped); err != nil {
		t.Fatal(err)
	}

	var ledger strings.Builder
	resumed := opt
	resumed.Checkpoint = &adatm.CheckpointConfig{Dir: dir, Every: 1, Retain: 3}
	resumed.Audit = adatm.NewAuditRecorder(adatm.AuditConfig{Ledger: &ledger})
	res, err := adatm.Resume(x, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != ref.Iters || math.Abs(res.Fit-ref.Fit) > 1e-12 {
		t.Fatalf("resumed iters=%d fit=%v, want iters=%d fit=%v", res.Iters, res.Fit, ref.Iters, ref.Fit)
	}
	if !strings.Contains(ledger.String(), "resume") {
		t.Errorf("audit ledger missing resume event: %q", ledger.String())
	}

	// Resume demands a configured checkpoint directory...
	if _, err := adatm.Resume(x, opt); err == nil {
		t.Error("Resume without Checkpoint.Dir accepted")
	}
	// ...and at least one checkpoint in it.
	empty := opt
	empty.Checkpoint = &adatm.CheckpointConfig{Dir: filepath.Join(t.TempDir(), "none")}
	if _, err := adatm.Resume(x, empty); err == nil {
		t.Error("Resume from empty directory accepted")
	}
}

// A resumed run reconciles the model against its own iterations only: a
// 4 + 4 resume measures the same ops per iteration as a fresh 8-iteration
// run, not half of it.
func TestResumeAuditReconcile(t *testing.T) {
	x := testTensor(t)
	opt := adatm.Options{Rank: 4, MaxIters: 8, Tol: 1e-300, Seed: 2, Engine: adatm.EngineAdaptive}
	measured := func(opt adatm.Options, run func(*adatm.Tensor, adatm.Options) (*adatm.Result, error)) (iters int, ops float64) {
		t.Helper()
		opt.Audit = adatm.NewAuditRecorder(adatm.AuditConfig{})
		if _, err := run(x, opt); err != nil {
			t.Fatal(err)
		}
		rep := opt.Audit.Latest().Report
		if rep == nil {
			t.Fatal("no reconciliation recorded")
		}
		return rep.Measured.Iters, rep.Measured.OpsPerIter
	}
	freshIters, fresh := measured(opt, adatm.Decompose)

	dir := filepath.Join(t.TempDir(), "ck")
	stopped := opt
	stopped.Checkpoint = &adatm.CheckpointConfig{Dir: dir, Every: 1}
	n := 0
	stopped.Progress = func(adatm.IterStats) bool { n++; return n < 4 }
	if _, err := adatm.Decompose(x, stopped); err != nil {
		t.Fatal(err)
	}
	resumed := opt
	resumed.Checkpoint = &adatm.CheckpointConfig{Dir: dir, Every: 1}
	iters, ops := measured(resumed, adatm.Resume)

	if freshIters != 8 || iters != 4 {
		t.Errorf("measured iters: fresh %d, resumed %d; want 8 and 4", freshIters, iters)
	}
	if fresh <= 0 || ops != fresh {
		t.Errorf("resumed ops_per_iter %g, fresh %g; want equal", ops, fresh)
	}
}
