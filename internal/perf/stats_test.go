package perf

import (
	"math"
	"math/rand"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1e9, 1, 2, 3, 4}, 3}, // single huge outlier ignored
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

// samplesWithU builds tie-free sample pairs (xs of size n, ys of size m)
// whose Mann–Whitney U statistic (count of x>y pairs) is exactly u.
func samplesWithU(n, m, u int) (xs, ys []float64) {
	ys = make([]float64, m)
	for j := range ys {
		ys[j] = float64(10 * (j + 1)) // 10, 20, ..., 10m
	}
	q, r := u/m, u%m
	for i := 0; i < n; i++ {
		switch {
		case i < q:
			xs = append(xs, float64(10*m+100+i)) // beats all m ys
		case i == q && r > 0:
			xs = append(xs, float64(10*r+5)) // beats exactly r ys
		default:
			xs = append(xs, float64(i)+0.5) // beats none (all < 10)
		}
	}
	return xs, ys
}

// TestMannWhitneyCriticalValues pins the test against the published
// two-tailed α=0.05 critical-value table: for equal sample sizes n, the
// largest U that is significant is U_crit(n) — one more must not be.
// (Standard table: n=4→0, n=5→2, n=6→5, n=8→13, n=10→23.)
func TestMannWhitneyCriticalValues(t *testing.T) {
	crit := map[int]int{4: 0, 5: 2, 6: 5, 8: 13, 10: 23}
	for n, uc := range crit {
		xs, ys := samplesWithU(n, n, uc)
		u, p := MannWhitneyU(xs, ys)
		if u != float64(uc) {
			t.Fatalf("n=%d: constructed U=%v, want %d", n, u, uc)
		}
		if p > 0.05 {
			t.Errorf("n=%d U=%d: p=%v, want <= 0.05 (critical value)", n, uc, p)
		}
		xs, ys = samplesWithU(n, n, uc+1)
		u, p = MannWhitneyU(xs, ys)
		if u != float64(uc+1) {
			t.Fatalf("n=%d: constructed U=%v, want %d", n, u, uc+1)
		}
		if p <= 0.05 {
			t.Errorf("n=%d U=%d: p=%v, want > 0.05 (one above critical)", n, uc+1, p)
		}
	}
}

// TestMannWhitneySmallSamplesNeverSignificant: at n=m=3 the most extreme
// arrangement has p=0.1, so 3-sample comparisons can never trip an α=0.05
// gate — and 1-sample smoke comparisons always pass (p=1).
func TestMannWhitneySmallSamplesNeverSignificant(t *testing.T) {
	_, p := MannWhitneyU([]float64{1, 2, 3}, []float64{10, 20, 30})
	if math.Abs(p-0.1) > 1e-12 {
		t.Errorf("n=m=3 extreme p = %v, want 0.1", p)
	}
	_, p = MannWhitneyU([]float64{1}, []float64{100})
	if p != 1 {
		t.Errorf("n=m=1 p = %v, want 1", p)
	}
}

func TestMannWhitneyExactKnownValue(t *testing.T) {
	// n=m=5, complete separation: U=0, exact p = 2·(1/252) = 0.00794.
	xs, ys := samplesWithU(5, 5, 0)
	u, p := MannWhitneyU(xs, ys)
	if u != 0 {
		t.Fatalf("U = %v, want 0", u)
	}
	if math.Abs(p-2.0/252) > 1e-12 {
		t.Errorf("p = %v, want %v", p, 2.0/252)
	}
}

func TestMannWhitneyDegenerate(t *testing.T) {
	if _, p := MannWhitneyU(nil, []float64{1}); p != 1 {
		t.Errorf("empty sample p = %v, want 1", p)
	}
	// All values tied: zero variance, no evidence.
	if _, p := MannWhitneyU([]float64{5, 5, 5}, []float64{5, 5, 5}); p != 1 {
		t.Errorf("all-tied p = %v, want 1", p)
	}
}

func TestMannWhitneySymmetry(t *testing.T) {
	xs, ys := samplesWithU(6, 8, 11)
	_, p1 := MannWhitneyU(xs, ys)
	_, p2 := MannWhitneyU(ys, xs)
	if p1 != p2 {
		t.Errorf("p not symmetric: %v vs %v", p1, p2)
	}
}

// TestMannWhitneyTiesApproximation drives the tie-corrected normal path and
// checks it still separates clearly different distributions and accepts
// clearly identical ones.
func TestMannWhitneyTiesApproximation(t *testing.T) {
	// Heavy overlap with ties: must not be significant.
	xs := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	ys := []float64{1, 2, 2, 3, 3, 4, 4, 4}
	if _, p := MannWhitneyU(xs, ys); p < 0.4 {
		t.Errorf("near-identical tied samples p = %v, want large", p)
	}
	// Complete separation with internal ties: strongly significant. 22
	// samples a side also exercises the >exactMax normal path.
	xs, ys = nil, nil
	for i := 0; i < 22; i++ {
		xs = append(xs, float64(1+i%3))   // {1,2,3} repeated
		ys = append(ys, float64(100+i%3)) // {100,101,102} repeated
	}
	if _, p := MannWhitneyU(xs, ys); p > 1e-6 {
		t.Errorf("fully separated tied samples p = %v, want tiny", p)
	}
}

// TestMannWhitneyFalsePositiveRate is the same-distribution property test:
// when both sample sets come from one distribution, the rejection rate at
// level α must be bounded by α (the exact test is conservative, so α itself
// is the ceiling up to binomial noise).
func TestMannWhitneyFalsePositiveRate(t *testing.T) {
	const (
		trials = 600
		n      = 8
		alpha  = 0.05
	)
	rng := rand.New(rand.NewSource(42))
	rejections := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for j := range xs {
			// Lognormal-ish positive "latencies", identical distribution on
			// both sides.
			xs[j] = math.Exp(rng.NormFloat64())
			ys[j] = math.Exp(rng.NormFloat64())
		}
		if _, p := MannWhitneyU(xs, ys); p < alpha {
			rejections++
		}
	}
	rate := float64(rejections) / trials
	// Exact-test rejection probability at n=m=8, α=0.05 is ~0.041; with 600
	// trials the 5σ binomial band stays below 0.085. A rate above that means
	// the test is anti-conservative — the property this pin protects.
	if rate > 0.085 {
		t.Errorf("false-positive rate %.3f over %d trials, want <= 0.085 (alpha %.2f)", rate, trials, alpha)
	}
}

// TestMannWhitneyPower sanity-checks the other direction: a real 3x shift
// at usable sample sizes must be detected essentially always.
func TestMannWhitneyPower(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	detected := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		xs := make([]float64, 8)
		ys := make([]float64, 8)
		for j := range xs {
			xs[j] = 1 + 0.05*rng.Float64()
			ys[j] = 3 + 0.05*rng.Float64()
		}
		if _, p := MannWhitneyU(xs, ys); p < 0.05 {
			detected++
		}
	}
	if detected < trials*95/100 {
		t.Errorf("detected %d/%d clear 3x shifts, want >= 95%%", detected, trials)
	}
}
