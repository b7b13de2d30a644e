package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// testLengths covers the specialized paths (8, 16, 32), the 4-wide unrolled
// body, the scalar tail, and the degenerate lengths.
var testLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40}

func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testLengths {
		src := randVec(n, rng)
		dst := randVec(n, rng)
		want := make([]float64, n)
		for j := range want {
			want[j] = 2.5 * src[j]
		}
		Scale(dst, src, 2.5)
		if !almostEqual(dst, want, 0) {
			t.Errorf("Scale n=%d: got %v want %v", n, dst, want)
		}
	}
}

func TestMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range testLengths {
		a, b := randVec(n, rng), randVec(n, rng)
		dst := randVec(n, rng)
		want := make([]float64, n)
		for j := range want {
			want[j] = a[j] * b[j]
		}
		Mul(dst, a, b)
		if !almostEqual(dst, want, 0) {
			t.Errorf("Mul n=%d mismatch", n)
		}
		// Aliased: dst == a.
		ac := append([]float64(nil), a...)
		Mul(ac, ac, b)
		if !almostEqual(ac, want, 0) {
			t.Errorf("Mul aliased n=%d mismatch", n)
		}
	}
}

func TestMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testLengths {
		src := randVec(n, rng)
		dst := randVec(n, rng)
		want := make([]float64, n)
		for j := range want {
			want[j] = dst[j] * src[j]
		}
		MulInto(dst, src)
		if !almostEqual(dst, want, 0) {
			t.Errorf("MulInto n=%d mismatch", n)
		}
	}
}

func TestAddInto(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range testLengths {
		src := randVec(n, rng)
		dst := randVec(n, rng)
		want := make([]float64, n)
		for j := range want {
			want[j] = dst[j] + src[j]
		}
		AddInto(dst, src)
		if !almostEqual(dst, want, 0) {
			t.Errorf("AddInto n=%d mismatch", n)
		}
	}
}

func TestFMAInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range testLengths {
		a, b := randVec(n, rng), randVec(n, rng)
		dst := randVec(n, rng)
		want := make([]float64, n)
		for j := range want {
			want[j] = dst[j] + a[j]*b[j]
		}
		FMAInto(dst, a, b)
		if !almostEqual(dst, want, 0) {
			t.Errorf("FMAInto n=%d mismatch", n)
		}
	}
}

func TestAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range testLengths {
		src := randVec(n, rng)
		dst := randVec(n, rng)
		want := make([]float64, n)
		for j := range want {
			want[j] = dst[j] + 1.75*src[j]
		}
		Axpy(dst, 1.75, src)
		if !almostEqual(dst, want, 0) {
			t.Errorf("Axpy n=%d mismatch", n)
		}
	}
}

// hadamardChain is the unfused sequence the fused kernels replace: the
// product is built in a temporary row by Scale (or a copy of base) and
// MulInto, then added into dst.
func hadamardChain(dst []float64, v float64, base []float64, rows [][]float64) {
	tmp := make([]float64, len(dst))
	switch {
	case base != nil:
		copy(tmp, base)
	case len(rows) == 0:
		for j := range tmp {
			tmp[j] = v
		}
	default:
		Scale(tmp, rows[0], v)
		rows = rows[1:]
	}
	for _, row := range rows {
		MulInto(tmp, row)
	}
	AddInto(dst, tmp)
}

// randSpecialVec is randVec with signed zeros and extreme magnitudes mixed
// in, so the association of every product and the final add is pinned on
// the values where a reordering shows.
func randSpecialVec(n int, rng *rand.Rand) []float64 {
	special := []float64{0, math.Copysign(0, -1), 1e-300, -1e300, 3}
	v := randVec(n, rng)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
	return v
}

// checkAgainstChain runs one fused kernel (base == nil: HadamardAccum with
// v; otherwise HadamardAccumVec) and the chain on copies of dst, and
// requires the same bits.
func checkAgainstChain(t *testing.T, dst []float64, v float64, base []float64, rows [][]float64) {
	t.Helper()
	got := append([]float64(nil), dst...)
	want := append([]float64(nil), dst...)
	if base == nil {
		HadamardAccum(got, v, rows)
	} else {
		HadamardAccumVec(got, base, rows)
	}
	hadamardChain(want, v, base, rows)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("n=%d k=%d vec=%v: [%d] = %v (%#x), chain gives %v (%#x)", len(dst), len(rows), base != nil,
				j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// chainLengths adds R = 64, two blocks of the more-than-four-rows path, to
// the lengths every primitive is tested at.
var chainLengths = append(append([]int(nil), testLengths...), 64)

// TestHadamardAccum pins the fused kernel bit for bit to the
// Scale/MulInto/AddInto chain at 0–6 rows: the fixed-size four-row body
// (R = 16), the unrolled bodies, and the blocked path above four rows.
func TestHadamardAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range chainLengths {
		for k := 0; k <= 6; k++ {
			for trial := 0; trial < 10; trial++ {
				rows := make([][]float64, k)
				for i := range rows {
					rows[i] = randSpecialVec(n, rng)
				}
				checkAgainstChain(t, randSpecialVec(n, rng), rng.NormFloat64()*1e3, nil, rows)
			}
		}
	}
}

// TestHadamardAccumVec is TestHadamardAccum for the vector-base kernel.
func TestHadamardAccumVec(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range chainLengths {
		for k := 0; k <= 6; k++ {
			for trial := 0; trial < 10; trial++ {
				rows := make([][]float64, k)
				for i := range rows {
					rows[i] = randSpecialVec(n, rng)
				}
				checkAgainstChain(t, randSpecialVec(n, rng), 0, randSpecialVec(n, rng), rows)
			}
		}
	}
}

// TestStreamAccum pins the streamed kernel bit for bit to one HadamardAccum
// call per nonzero, in nonzero order, at 1–6 factors and reduction groups of
// 0–9 nonzeros: the 8- and 4-column blocks and the scalar tail, with signed
// zeros and extremes in the values and the factors.
func TestStreamAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range chainLengths {
		for k := 1; k <= 6; k++ {
			for trial := 0; trial < 10; trial++ {
				const rows = 5
				facs := make([][]float64, k)
				for m := range facs {
					facs[m] = randSpecialVec(rows*n, rng)
				}
				nnz := rng.Intn(10)
				vals := randSpecialVec(nnz, rng)
				idx := make([][]int32, k)
				for m := range idx {
					idx[m] = make([]int32, nnz)
					for e := range idx[m] {
						idx[m][e] = int32(rng.Intn(rows))
					}
				}
				got := randSpecialVec(n, rng)
				want := append([]float64(nil), got...)
				StreamAccum(got, vals, idx, facs)
				fr := make([][]float64, k)
				for e, v := range vals {
					for m := range fr {
						o := int(idx[m][e]) * n
						fr[m] = facs[m][o : o+n]
					}
					HadamardAccum(want, v, fr)
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("n=%d k=%d nnz=%d: [%d] = %v, per-nonzero loop gives %v", n, k, nnz, j, got[j], want[j])
					}
				}
			}
		}
	}
}

func TestArena(t *testing.T) {
	a := NewArena(3, 2)
	if a.Workers() != 3 {
		t.Fatalf("workers = %d", a.Workers())
	}
	a.EnsureRank(16)
	if a.Rank() != 16 {
		t.Fatalf("rank = %d", a.Rank())
	}
	// Distinct (worker, slot) buffers never overlap.
	for w := 0; w < 3; w++ {
		for s := 0; s < 2; s++ {
			buf := a.Buf(w, s)
			if len(buf) != 16 {
				t.Fatalf("buf len %d", len(buf))
			}
			for j := range buf {
				buf[j] = float64(w*100 + s*10)
			}
		}
	}
	for w := 0; w < 3; w++ {
		for s := 0; s < 2; s++ {
			for _, v := range a.Buf(w, s) {
				if v != float64(w*100+s*10) {
					t.Fatalf("worker %d slot %d clobbered: %v", w, s, v)
				}
			}
		}
	}
	// Shrinking re-slices without reallocating; steady-state rank is free.
	p := &a.data[0]
	a.EnsureRank(8)
	a.EnsureRank(16)
	if &a.data[0] != p {
		t.Error("EnsureRank reallocated within existing capacity")
	}
	if n := testing.AllocsPerRun(100, func() { a.EnsureRank(16) }); n != 0 {
		t.Errorf("steady-state EnsureRank allocates %v/op", n)
	}
	// Growing reallocates to the larger size.
	a.EnsureRank(64)
	if len(a.Buf(2, 1)) != 64 {
		t.Fatalf("post-grow buf len %d", len(a.Buf(2, 1)))
	}
}

func TestArenaClampsDegenerateSizes(t *testing.T) {
	a := NewArena(0, 0)
	a.EnsureRank(4)
	if len(a.Buf(0, 0)) != 4 {
		t.Fatal("degenerate arena unusable")
	}
}

// The primitives themselves must never allocate.
func TestPrimitivesAllocFree(t *testing.T) {
	dst := make([]float64, 17)
	a := make([]float64, 17)
	b := make([]float64, 17)
	rows := [][]float64{a, b}
	rows6 := [][]float64{a, b, a, b, a, b}
	if n := testing.AllocsPerRun(100, func() {
		Scale(dst, a, 2)
		MulInto(dst, a)
		AddInto(dst, a)
		FMAInto(dst, a, b)
		Axpy(dst, 2, a)
		HadamardAccum(dst, 2, rows)
		HadamardAccumVec(dst, a, rows)
		HadamardAccum(dst, 2, rows6)
		HadamardAccumVec(dst, a, rows6)
		StreamAccum(dst, a[:3], [][]int32{{0, 0, 0}, {0, 0, 0}}, rows)
	}); n != 0 {
		t.Errorf("primitives allocate %v/op", n)
	}
}
