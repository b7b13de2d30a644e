package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adatm/internal/memo"
	"adatm/internal/tensor"
)

func TestKMVExactBelowK(t *testing.T) {
	s := newKMV(64)
	for i := 0; i < 40; i++ {
		s.offer(mix64(uint64(i)))
		s.offer(mix64(uint64(i))) // duplicates must not count
	}
	if got := s.estimate(); got != 40 {
		t.Errorf("estimate = %d, want exact 40", got)
	}
}

func TestKMVEstimateWithinError(t *testing.T) {
	for _, trueD := range []int{5000, 50000, 200000} {
		s := newKMV(1024)
		rng := rand.New(rand.NewSource(int64(trueD)))
		for i := 0; i < trueD; i++ {
			h := mix64(uint64(i) ^ 0xabcdef)
			s.offer(h)
			if rng.Intn(3) == 0 {
				s.offer(h) // re-offers must be harmless
			}
		}
		got := float64(s.estimate())
		relErr := math.Abs(got-float64(trueD)) / float64(trueD)
		if relErr > 0.15 { // 1/sqrt(1024) ≈ 3.1%; 15% is a generous gate
			t.Errorf("trueD=%d: estimate %g, rel err %.3f", trueD, got, relErr)
		}
	}
}

func TestEstimatorMatchesExactOnSmall(t *testing.T) {
	x := tensor.RandomClustered(4, 12, 800, 0.8, 81)
	sketch := NewEstimator(x, 4096) // k above every true count → exact
	exact := NewExactEstimator(x)
	for lo := 0; lo < 4; lo++ {
		for hi := lo + 1; hi <= 4; hi++ {
			if s, e := sketch.Distinct(lo, hi), exact.Distinct(lo, hi); s != e {
				t.Errorf("range [%d,%d): sketch %d != exact %d", lo, hi, s, e)
			}
		}
	}
}

func TestExactEstimatorMatchesSymbolicCounts(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 600, 0.9, 82)
	est := NewExactEstimator(x)
	eng, err := memo.New(x, memo.Balanced(4), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range eng.NodeElemCounts() {
		if got := est.Distinct(c.Lo, c.Hi); got != int64(c.Elems) {
			t.Errorf("range [%d,%d): model %d != symbolic %d", c.Lo, c.Hi, got, c.Elems)
		}
	}
}

// With exact counts the model's op prediction must equal the engine's exact
// per-iteration op count for any strategy.
func TestPredictOpsMatchEngine(t *testing.T) {
	x := tensor.RandomClustered(5, 9, 500, 0.7, 83)
	est := NewExactEstimator(x)
	for _, s := range []*memo.Strategy{memo.Flat(5), memo.TwoGroup(5, 2), memo.Balanced(5)} {
		eng, err := memo.New(x, s, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		rank := 16
		pred := Predict(est, s, rank)
		if want := eng.PerIterationOps(rank); pred.Ops != want {
			t.Errorf("%s: predicted %d, engine %d", s, pred.Ops, want)
		}
	}
}

func TestDistinctFullRangeIsNNZ(t *testing.T) {
	x := tensor.RandomUniform(3, 20, 400, 84)
	est := NewEstimator(x, 64) // small sketch; full range must still be pinned
	if got := est.Distinct(0, 3); got != int64(x.NNZ()) {
		t.Errorf("full range = %d, want nnz %d", got, x.NNZ())
	}
}

func TestDistinctOutOfRangePanics(t *testing.T) {
	x := tensor.RandomUniform(3, 5, 20, 85)
	est := NewEstimator(x, 64)
	for _, rng := range [][2]int{{-1, 2}, {2, 2}, {1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Distinct(%d,%d) did not panic", rng[0], rng[1])
				}
			}()
			est.Distinct(rng[0], rng[1])
		}()
	}
}

// Brute-force all binary trees over [0,n) and verify the DP finds the
// minimum predicted op count.
func enumerateBinary(lo, hi int) []*memo.Strategy {
	if hi-lo == 1 {
		return []*memo.Strategy{{Lo: lo, Hi: hi}}
	}
	var out []*memo.Strategy
	for s := lo + 1; s < hi; s++ {
		for _, l := range enumerateBinary(lo, s) {
			for _, r := range enumerateBinary(s, hi) {
				out = append(out, &memo.Strategy{Lo: lo, Hi: hi, Children: []*memo.Strategy{l, r}})
			}
		}
	}
	return out
}

func TestDPBinaryIsOptimal(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		x := tensor.RandomClustered(5, 8, 400, 1.0, seed*91)
		est := NewExactEstimator(x)
		rank := 8
		dp := dpBinary(est, rank)
		if err := dp.Validate(5); err != nil {
			t.Fatal(err)
		}
		dpOps := Predict(est, dp, rank).Ops
		for _, cand := range enumerateBinary(0, 5) {
			if ops := Predict(est, cand, rank).Ops; ops < dpOps {
				t.Errorf("seed %d: DP %d beaten by %s with %d", seed, dpOps, cand, ops)
			}
		}
	}
}

func TestSelectPrefersMemoizationOnClustered(t *testing.T) {
	x := tensor.RandomClustered(6, 10, 2000, 1.0, 92)
	plan := Select(x, Options{Rank: 16})
	if plan.Chosen.Name == "flat" {
		t.Errorf("selector chose flat on a order-6 clustered tensor:\n%s", plan)
	}
	// Candidates must be sorted by predicted ops.
	for i := 1; i < len(plan.Candidates); i++ {
		if plan.Candidates[i].Pred.Ops < plan.Candidates[i-1].Pred.Ops {
			t.Error("candidates not sorted by predicted ops")
		}
	}
}

func TestSelectHonorsBudget(t *testing.T) {
	x := tensor.RandomClustered(5, 12, 3000, 0.6, 93)
	unbounded := Select(x, Options{Rank: 32})
	// A budget just below the unbounded choice's footprint must force a
	// different (cheaper-memory) choice or the fallback.
	foot := unbounded.Chosen.Pred.IndexBytes + unbounded.Chosen.Pred.PeakValueBytes
	tight := Select(x, Options{Rank: 32, Budget: foot - 1})
	tightFoot := tight.Chosen.Pred.IndexBytes + tight.Chosen.Pred.PeakValueBytes
	if tight.Chosen.Feasible && tightFoot > foot-1 {
		t.Errorf("budget violated: footprint %d > budget %d", tightFoot, foot-1)
	}
	if tight.Chosen.Strategy.Equal(unbounded.Chosen.Strategy) && tight.Chosen.Feasible {
		t.Error("tight budget did not change the feasible choice")
	}
}

func TestSelectFallbackWhenNothingFits(t *testing.T) {
	x := tensor.RandomUniform(4, 10, 500, 94)
	plan := Select(x, Options{Rank: 16, Budget: 1}) // 1 byte: nothing fits
	if plan.Chosen.Strategy == nil {
		t.Fatal("no fallback choice")
	}
	if plan.Chosen.Feasible {
		t.Error("choice marked feasible under a 1-byte budget")
	}
}

func TestSelectExactMode(t *testing.T) {
	x := tensor.RandomClustered(4, 8, 300, 0.8, 95)
	a := SelectWithEstimator(NewExactEstimator(x), Options{Rank: 8})
	b := SelectWithEstimator(NewEstimator(x, 1<<15), Options{Rank: 8})
	if !a.Chosen.Strategy.Equal(b.Chosen.Strategy) {
		t.Errorf("exact and oversized-sketch selection disagree: %s vs %s", a.Chosen.Strategy, b.Chosen.Strategy)
	}
}

func TestPlanString(t *testing.T) {
	x := tensor.RandomUniform(3, 10, 200, 96)
	plan := Select(x, Options{Rank: 8, Budget: 1 << 30})
	s := plan.String()
	if len(s) == 0 {
		t.Fatal("empty plan report")
	}
}

func TestPredictBaselineCOO(t *testing.T) {
	x := tensor.RandomUniform(3, 10, 200, 97)
	est := NewEstimator(x, 0)
	want := int64(x.NNZ()) * 3 * 3 * 8
	if got := PredictBaselineCOO(est, 8); got != want {
		t.Errorf("coo baseline = %d, want %d", got, want)
	}
}

// Property: the sketch estimator's interval counts are monotone under range
// extension up to sketch error: distinct([lo,hi)) <= distinct([lo,hi+1)) is
// true exactly; allow 20% slack for sketch noise.
func TestMonotoneRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(3)
		x := tensor.RandomClustered(order, 6+rng.Intn(10), 300, rng.Float64(), seed)
		est := NewEstimator(x, 512)
		for lo := 0; lo < order; lo++ {
			for hi := lo + 1; hi < order; hi++ {
				if float64(est.Distinct(lo, hi)) > 1.2*float64(est.Distinct(lo, hi+1)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
