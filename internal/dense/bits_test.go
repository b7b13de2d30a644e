package dense

import (
	"math"
	"math/rand"
	"testing"

	"adatm/internal/par"
)

// The blocked Gram and the four-row solve are pinned bit for bit to the
// row-at-a-time loops below, which they replace: the same association per
// output element and no FMA. The ALS loop's factors, fits and checkpoints
// rest on these bits.
//
// Input is finite. On a non-finite entry the mirrored Gram may differ from
// the reference: the reference adds Inf·0 = NaN into (p, q) when row[p] is
// Inf and row[q] is 0, but skips that row in (q, p), so its two triangles
// disagree and the mirror keeps only one of them. The ALS loop in
// internal/cpd takes the Gram of an updated factor only after the finite
// check on its λ (the factor's column norms), which stops the run with a
// NonFiniteError first; the start-up Grams see the random start, a
// validated checkpoint or a caller's Options.Init, which is not checked.
// The solve treats every row alone and in the same order as the
// reference, so its bits match on any input.

// refGram is the row-at-a-time Gram: every worker adds all R² entries of
// each of its rows in row order, skipping the zero entries of the row's
// left factor, and the partials are summed in worker order.
func refGram(a *Matrix, workers int) *Matrix {
	c := a.Cols
	out := New(c, c)
	used := min(workers, a.Rows)
	acc := make([][]float64, used)
	for w := range acc {
		acc[w] = make([]float64, c*c)
	}
	par.ForWorker(a.Rows, workers, func(worker, lo, hi int) {
		acc := acc[worker]
		for i := lo; i < hi; i++ {
			row := a.Row(i)
			for p := 0; p < c; p++ {
				rp := row[p]
				if rp == 0 {
					continue
				}
				accRow := acc[p*c : (p+1)*c]
				for q := 0; q < c; q++ {
					accRow[q] += float64(rp * row[q])
				}
			}
		}
	})
	for _, a := range acc {
		for i, v := range a {
			out.Data[i] += v
		}
	}
	return out
}

// refSolve is the row-at-a-time substitution: per row, forward through L,
// then backward reading L by column.
func refSolve(a, b *Matrix) bool {
	n := a.Rows
	l := New(n, n)
	if !choleskyInto(a, l) {
		return false
	}
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		for i := 0; i < n; i++ {
			v := row[i]
			li := l.Row(i)
			for k := 0; k < i; k++ {
				v -= float64(li[k] * row[k])
			}
			row[i] = v / li[i]
		}
		for i := n - 1; i >= 0; i-- {
			v := row[i]
			for k := i + 1; k < n; k++ {
				v -= float64(l.At(k, i) * row[k])
			}
			row[i] = v / l.At(i, i)
		}
	}
	return true
}

// bitsMatrix fills a rows×r matrix with signed entries of mixed
// magnitude, exact +0 and −0 entries, and every third row all zero.
func bitsMatrix(rows, r int, rng *rand.Rand) *Matrix {
	m := New(rows, r)
	for i := 0; i < rows; i++ {
		if i%3 == 2 {
			continue
		}
		for j, row := 0, m.Row(i); j < r; j++ {
			switch rng.Intn(5) {
			case 0:
				row[j] = 0
			case 1:
				row[j] = math.Copysign(0, -1)
			default:
				row[j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(20)-10)
			}
		}
	}
	return m
}

func sameBits(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

func TestGramSolveBitsMatchRowLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ranks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32}
	var gs GramScratch
	var solver SPDSolver
	for _, r := range ranks {
		for _, rows := range []int{1, 2, 3, 5, 7, 13, 66, 1027} {
			a := bitsMatrix(rows, r, rng)
			for workers := 1; workers <= 3; workers++ {
				want := refGram(a, workers)
				got := gs.Gram(a, nil, workers)
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("R=%d rows=%d workers=%d: Gram[%d,%d] = %v (%#x), row loop %v (%#x)",
						r, rows, workers, i/r, i%r, got.Data[i], math.Float64bits(got.Data[i]),
						want.Data[i], math.Float64bits(want.Data[i]))
				}
			}

			h := randomSPD(r, rng)
			want := a.Clone()
			if !refSolve(h, want) {
				t.Fatalf("R=%d: test system not SPD", r)
			}
			for workers := 1; workers <= 3; workers++ {
				got := a.Clone()
				solver.Solve(h, got, workers)
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("R=%d rows=%d workers=%d: solve[%d,%d] = %v, row loop %v",
						r, rows, workers, i/r, i%r, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
