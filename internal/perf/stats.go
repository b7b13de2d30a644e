// Package perf is the statistics and file format behind cmd/perfgate: the
// versioned result file that holds perfbench's reports with an environment
// fingerprint, a Mann–Whitney significance test, and the baseline
// comparison that turns two result files into a regression verdict.
//
// The paper's claim — the cost model picks the fastest configuration — is
// only checkable over time if the underlying measurements are trustworthy
// and comparable across commits. Everything here is dependency-free, and a
// verdict rests on per-seed sample sets compared rank by rank, not on
// single anecdotes.
package perf

import (
	"math"
	"sort"
)

// Median returns the median of xs (0 for an empty slice). xs is not mutated.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// exactMax bounds the sample sizes for which the exact Mann–Whitney null
// distribution is computed (DP table is O(n·m·(n·m)) floats). Beyond it the
// normal approximation is used, which is accurate there anyway.
const exactMax = 20

// MannWhitneyU performs the two-sided Mann–Whitney U test (Wilcoxon rank-sum)
// on two independent samples, returning the smaller U statistic and the
// p-value for the null hypothesis that both samples come from the same
// distribution. This is the benchstat significance test: nonparametric, so a
// single GC-hit outlier cannot manufacture significance the way it inflates
// a t-test's variance estimate.
//
// Without ties and with both samples at most exactMax, the p-value is exact
// (computed from the full null distribution); otherwise the normal
// approximation with tie correction and continuity correction is used.
// Degenerate inputs (an empty sample, or all values tied) return p = 1:
// no evidence of a difference.
func MannWhitneyU(xs, ys []float64) (u, p float64) {
	n, m := len(xs), len(ys)
	if n == 0 || m == 0 {
		return 0, 1
	}
	// Rank the pooled samples (average ranks on ties).
	type obs struct {
		v float64
		x bool
	}
	pool := make([]obs, 0, n+m)
	for _, v := range xs {
		pool = append(pool, obs{v, true})
	}
	for _, v := range ys {
		pool = append(pool, obs{v, false})
	}
	sort.Slice(pool, func(a, b int) bool { return pool[a].v < pool[b].v })

	var rankX float64  // rank sum of xs
	var tieSum float64 // Σ(t³-t) over tie groups
	hasTies := false
	for i := 0; i < len(pool); {
		j := i
		for j < len(pool) && pool[j].v == pool[i].v {
			j++
		}
		t := float64(j - i)
		if t > 1 {
			hasTies = true
			tieSum += t*t*t - t
		}
		avgRank := float64(i+j+1) / 2 // ranks are 1-based: positions i+1..j
		for k := i; k < j; k++ {
			if pool[k].x {
				rankX += avgRank
			}
		}
		i = j
	}
	u1 := rankX - float64(n)*float64(n+1)/2
	u2 := float64(n)*float64(m) - u1
	u = math.Min(u1, u2)

	if !hasTies && n <= exactMax && m <= exactMax {
		return u, exactP(n, m, u)
	}

	N := float64(n + m)
	mu := float64(n) * float64(m) / 2
	variance := float64(n) * float64(m) / 12 * ((N + 1) - tieSum/(N*(N-1)))
	if variance <= 0 {
		return u, 1 // every value tied: no evidence either way
	}
	// Continuity correction pulls |u - mu| toward zero by 0.5.
	z := (math.Abs(u-mu) - 0.5) / math.Sqrt(variance)
	if z < 0 {
		z = 0
	}
	p = math.Erfc(z / math.Sqrt2) // = 2·(1 − Φ(z))
	return u, math.Min(1, p)
}

// exactP returns the exact two-sided p-value 2·P(U ≤ u) under the null
// distribution for sample sizes n, m without ties. The count of arrangements
// with statistic exactly u follows the classic recurrence
// c(n,m,u) = c(n-1,m,u-m) + c(n,m-1,u).
func exactP(n, m int, u float64) float64 {
	k := int(u) // u is integral when there are no ties
	umax := n * m
	if k < 0 {
		k = 0
	}
	if k > umax {
		k = umax
	}
	// dp[i][j][v] built iteratively; float64 counts are exact for the
	// magnitudes here (C(40,20) ≈ 1.4e11 « 2^53).
	dp := make([][][]float64, n+1)
	for i := range dp {
		dp[i] = make([][]float64, m+1)
		for j := range dp[i] {
			dp[i][j] = make([]float64, umax+1)
		}
	}
	for j := 0; j <= m; j++ {
		dp[0][j][0] = 1
	}
	for i := 1; i <= n; i++ {
		dp[i][0][0] = 1
		for j := 1; j <= m; j++ {
			for v := 0; v <= i*j; v++ {
				c := dp[i][j-1][v]
				if v >= j {
					c += dp[i-1][j][v-j]
				}
				dp[i][j][v] = c
			}
		}
	}
	var cum, total float64
	for v := 0; v <= umax; v++ {
		total += dp[n][m][v]
		if v <= k {
			cum += dp[n][m][v]
		}
	}
	return math.Min(1, 2*cum/total)
}
