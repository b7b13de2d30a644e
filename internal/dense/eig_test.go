package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSymmetric builds a random symmetric n×n matrix.
func randomSymmetric(n int, rng *rand.Rand) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// randomSPD builds AᵀA + εI, guaranteed SPD.
func randomSPD(n int, rng *rand.Rand) *Matrix {
	a := Random(n+3, n, rng)
	g := Gram(a, nil, 1)
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+0.1)
	}
	return g
}

func reconstructEig(w []float64, v *Matrix) *Matrix {
	n := len(w)
	out := New(n, n)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += w[k] * v.At(i, k) * v.At(j, k)
			}
		}
	}
	return out
}

func TestSymEigReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 8, 16, 32} {
		a := randomSymmetric(n, rng)
		w, v := SymEig(a)
		if d := reconstructEig(w, v).MaxAbsDiff(a); d > 1e-8 {
			t.Errorf("n=%d: reconstruction error %g", n, d)
		}
		// V orthonormal: VᵀV == I.
		vtv := Gram(v, nil, 1)
		if d := vtv.MaxAbsDiff(Identity(n)); d > 1e-8 {
			t.Errorf("n=%d: VᵀV deviates from I by %g", n, d)
		}
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, -2}})
	w, _ := SymEig(a)
	got := []float64{w[0], w[1]}
	if !(almostEqual(got[0], 3, 1e-12) && almostEqual(got[1], -2, 1e-12)) &&
		!(almostEqual(got[0], -2, 1e-12) && almostEqual(got[1], 3, 1e-12)) {
		t.Errorf("eigenvalues of diag(3,-2): %v", got)
	}
}

func TestPseudoInverseSymSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 4, 8, 16} {
		a := randomSPD(n, rng)
		inv := PseudoInverseSym(a, 0)
		prod := MatMul(a, inv, nil, 1)
		if d := prod.MaxAbsDiff(Identity(n)); d > 1e-7 {
			t.Errorf("n=%d: A·A⁺ deviates from I by %g", n, d)
		}
	}
}

// Penrose conditions hold for singular symmetric matrices too.
func TestPseudoInverseSymSingular(t *testing.T) {
	// Rank-1: a = uuᵀ.
	u := []float64{1, 2, 2}
	a := New(3, 3)
	for i := range u {
		for j := range u {
			a.Set(i, j, u[i]*u[j])
		}
	}
	p := PseudoInverseSym(a, 0)
	// A·A⁺·A == A.
	apa := MatMul(MatMul(a, p, nil, 1), a, nil, 1)
	if d := apa.MaxAbsDiff(a); d > 1e-8 {
		t.Errorf("A·A⁺·A deviates by %g", d)
	}
	// A⁺·A·A⁺ == A⁺.
	pap := MatMul(MatMul(p, a, nil, 1), p, nil, 1)
	if d := pap.MaxAbsDiff(p); d > 1e-8 {
		t.Errorf("A⁺·A·A⁺ deviates by %g", d)
	}
}

func TestCholeskySPD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(6, rng)
	l := New(6, 6)
	if !choleskyInto(a, l) {
		t.Fatal("choleskyInto failed on SPD matrix")
	}
	llt := MatMul(l, l.Transpose(), nil, 1)
	if d := llt.MaxAbsDiff(a); d > 1e-9 {
		t.Errorf("L·Lᵀ deviates by %g", d)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if choleskyInto(a, New(2, 2)) {
		t.Fatal("choleskyInto accepted an indefinite matrix")
	}
}

func TestSolveSPDInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 5
	a := randomSPD(n, rng)
	x := Random(7, n, rng) // true solution rows
	b := MatMul(x, a, nil, 1)
	var s SPDSolver
	s.Solve(a, b, 2)
	if d := b.MaxAbsDiff(x); d > 1e-7 {
		t.Errorf("solution deviates by %g", d)
	}
}

func TestSolveSPDFallsBackOnSingular(t *testing.T) {
	// Singular H: solve must not produce NaN/Inf (pseudoinverse fallback).
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	b := FromRows([][]float64{{2, 2}, {4, 4}})
	var s SPDSolver
	s.Solve(a, b, 1)
	for _, v := range b.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite entry after singular solve: %v", b.Data)
		}
	}
	// The minimum-norm solution of x·[[1,1],[1,1]] = [2,2] is [1,1].
	if !almostEqual(b.At(0, 0), 1, 1e-9) || !almostEqual(b.At(0, 1), 1, 1e-9) {
		t.Errorf("row 0 = %v, want [1 1]", b.Row(0))
	}
}

// Property: eigenvalue sum equals the trace, eigenvalue product equals the
// determinant for 2×2 symmetric matrices (closed form).
func TestSymEig2x2Property(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 || math.Abs(c) > 1e6 {
			return true // skip extreme magnitudes
		}
		m := FromRows([][]float64{{a, b}, {b, c}})
		w, _ := SymEig(m)
		scale := 1 + math.Abs(a) + math.Abs(b) + math.Abs(c)
		trOK := math.Abs((w[0]+w[1])-(a+c)) < 1e-8*scale
		detOK := math.Abs(w[0]*w[1]-(a*c-b*b)) < 1e-7*scale*scale
		return trOK && detOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
