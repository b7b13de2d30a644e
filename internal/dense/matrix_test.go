package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func naiveGram(a *Matrix) *Matrix {
	out := New(a.Cols, a.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < a.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * a.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New not zeroed")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for negative dimension")
		}
	}()
	New(-1, 2)
}

func TestRowAliases(t *testing.T) {
	m := New(2, 3)
	m.Row(1)[2] = 7
	if m.At(1, 2) != 7 {
		t.Fatal("Row does not alias storage")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows wrong: %+v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestGramMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{1, 1}, {5, 3}, {17, 8}, {100, 16}, {3, 7}} {
		a := Random(shape[0], shape[1], rng)
		for _, workers := range []int{1, 4} {
			got := Gram(a, nil, workers)
			want := naiveGram(a)
			if d := got.MaxAbsDiff(want); d > 1e-10 {
				t.Errorf("Gram %v workers=%d: max diff %g", shape, workers, d)
			}
		}
	}
}

func TestGramReuseOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(10, 4, rng)
	out := New(4, 4)
	out.Fill(123) // must be overwritten, not accumulated
	Gram(a, out, 2)
	want := naiveGram(a)
	if d := out.MaxAbsDiff(want); d > 1e-10 {
		t.Errorf("Gram into reused output: max diff %g", d)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(7, 5, rng)
	b := Random(5, 9, rng)
	got := MatMul(a, b, nil, 3)
	want := New(7, 9)
	for i := 0; i < 7; i++ {
		for j := 0; j < 9; j++ {
			s := 0.0
			for k := 0; k < 5; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if d := got.MaxAbsDiff(want); d > 1e-10 {
		t.Errorf("MatMul: max diff %g", d)
	}
}

func TestMatMulAliasPanics(t *testing.T) {
	a := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when output aliases input")
		}
	}()
	MatMul(a, a, a, 1)
}

func TestHadamard(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Hadamard(a, b, nil)
	want := FromRows([][]float64{{5, 12}, {21, 32}})
	if !got.Equal(want, 0) {
		t.Errorf("Hadamard: got %v", got.Data)
	}
	// In-place into a.
	Hadamard(a, b, a)
	if !a.Equal(want, 0) {
		t.Errorf("Hadamard in-place: got %v", a.Data)
	}
}

func TestHadamardAll(t *testing.T) {
	a := FromRows([][]float64{{2}})
	b := FromRows([][]float64{{3}})
	c := FromRows([][]float64{{4}})
	if got := HadamardAll([]*Matrix{a, b, c}).At(0, 0); got != 24 {
		t.Errorf("HadamardAll: got %g", got)
	}
	if a.At(0, 0) != 2 {
		t.Error("HadamardAll mutated an input")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tt := m.Transpose()
	if tt.Rows != 3 || tt.Cols != 2 || tt.At(2, 0) != 3 || tt.At(1, 1) != 5 {
		t.Errorf("Transpose wrong: %+v", tt)
	}
}

func TestColumnNormsAndNormalize(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {4, 0}})
	norms := NormalizeColumns(m)
	if !almostEqual(norms[0], 5, 1e-12) || norms[1] != 0 {
		t.Errorf("norms = %v", norms)
	}
	if !almostEqual(m.At(0, 0), 0.6, 1e-12) || !almostEqual(m.At(1, 0), 0.8, 1e-12) {
		t.Errorf("normalized col 0 = %g, %g", m.At(0, 0), m.At(1, 0))
	}
	// Zero column untouched.
	if m.At(0, 1) != 0 || m.At(1, 1) != 0 {
		t.Error("zero column modified")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if !almostEqual(m.FrobeniusNorm(), 5, 1e-12) {
		t.Errorf("Frobenius = %g", m.FrobeniusNorm())
	}
}

func TestFillZero(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	if m.At(1, 1) != 3 {
		t.Errorf("Fill: %v", m.Data)
	}
	m.Zero()
	if m.FrobeniusNorm() != 0 {
		t.Error("Zero did not clear")
	}
}

// Property: Gram is symmetric and positive semidefinite on random inputs
// (diagonal dominance is not guaranteed, but xᵀ(AᵀA)x = ‖Ax‖² ≥ 0).
func TestGramPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(8)
		a := Random(rows, cols, rng)
		g := Gram(a, nil, 2)
		// Symmetry.
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				if !almostEqual(g.At(i, j), g.At(j, i), 1e-10) {
					return false
				}
			}
		}
		// PSD via random quadratic forms.
		for trial := 0; trial < 4; trial++ {
			x := make([]float64, cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			q := 0.0
			for i := 0; i < cols; i++ {
				for j := 0; j < cols; j++ {
					q += x[i] * g.At(i, j) * x[j]
				}
			}
			if q < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i, k, j := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Random(i, k, rng)
		b := Random(k, j, rng)
		left := MatMul(a, b, nil, 1).Transpose()
		right := MatMul(b.Transpose(), a.Transpose(), nil, 1)
		return left.MaxAbsDiff(right) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
