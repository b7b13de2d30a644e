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

// checkAgainstChain runs HadamardAccum and the chain on copies of dst, and
// requires the same bits.
func checkAgainstChain(t *testing.T, dst []float64, v float64, rows [][]float64) {
	t.Helper()
	got := append([]float64(nil), dst...)
	want := append([]float64(nil), dst...)
	HadamardAccum(got, v, rows)
	hadamardChain(want, v, nil, rows)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("n=%d k=%d: [%d] = %v (%#x), chain gives %v (%#x)", len(dst), len(rows),
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
				checkAgainstChain(t, randSpecialVec(n, rng), rng.NormFloat64()*1e3, rows)
			}
		}
	}
}

// streamBodies lists the bodies of StreamAccum and GatherAccum this host
// runs: the portable one, and the AVX2 one when the CPU has it.
func streamBodies(t testing.TB) []bool {
	if !hasAVX2 {
		t.Logf("no AVX2 on this CPU or OS: only the portable body runs")
		return []bool{false}
	}
	return []bool{false, true}
}

// bodyName names a body of streamBodies.
func bodyName(avx bool) string {
	if avx {
		return "avx2"
	}
	return "portable"
}

// streamAccumWith runs StreamAccum with its AVX2 body selected (avx, which
// only a CPU with AVX2 may ask for) or the portable one, and reports whether
// it panicked.
func streamAccumWith(avx bool, dst, vals []float64, idx [][]int32, facs [][]float64) (panicked bool) {
	saved := hasAVX2
	hasAVX2 = avx
	defer func() {
		hasAVX2 = saved
		panicked = recover() != nil
	}()
	StreamAccum(dst, vals, idx, facs)
	return false
}

// TestStreamAccum pins both bodies of the streamed kernel bit for bit to
// one HadamardAccum call per nonzero, in nonzero order, at 1–6 factors and
// reduction groups of 0–9 nonzeros: every length of chainLengths covers the
// AVX2 body's 16- and 4-column blocks and scalar tail, and the portable
// body's 8- and 4-column blocks and tail, with signed zeros and extremes in
// the values and the factors.
func TestStreamAccum(t *testing.T) {
	for _, avx := range streamBodies(t) {
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
					if streamAccumWith(avx, got, vals, idx, facs) {
						t.Fatalf("%s n=%d k=%d nnz=%d: panicked on valid input", bodyName(avx), n, k, nnz)
					}
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
							t.Fatalf("%s n=%d k=%d nnz=%d: [%d] = %v, per-nonzero loop gives %v", bodyName(avx), n, k, nnz, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestStreamAccumBounds requires both bodies to panic, not to read stray
// memory, on a negative row index (−1 and the most negative int32), on an
// index equal to the factor's row count, and on an index array shorter than
// vals: in the first and the last factor, and in each kind of column block.
func TestStreamAccumBounds(t *testing.T) {
	const rows = 3
	for _, avx := range streamBodies(t) {
		for _, r := range []int{1, 4, 16, 21} {
			for _, k := range []int{1, 3} {
				for _, m := range []int{0, k - 1} {
					cases := map[string]func(idx [][]int32){
						"index -1":       func(idx [][]int32) { idx[m][1] = -1 },
						"index MinInt32": func(idx [][]int32) { idx[m][1] = math.MinInt32 },
						"index = rows":   func(idx [][]int32) { idx[m][1] = rows },
						"short index":    func(idx [][]int32) { idx[m] = idx[m][:1] },
					}
					for name, corrupt := range cases {
						facs := make([][]float64, k)
						idx := make([][]int32, k)
						for f := range facs {
							facs[f] = make([]float64, rows*r)
							idx[f] = []int32{0, 1, 2}
						}
						corrupt(idx)
						if !streamAccumWith(avx, make([]float64, r), []float64{1, 2, 3}, idx, facs) {
							t.Errorf("%s R=%d k=%d factor %d, %s: no panic", bodyName(avx), r, k, m, name)
						}
					}
				}
			}
		}
	}
}

// FuzzStreamAccum draws R, the factor count, the group size, values
// (infinities, signed zeros, subnormals and extremes included) and row
// indices (some negative or past the last row, some index arrays short)
// from the input, and requires both bodies to give the same bits or both to
// panic. It skips on a CPU without AVX2.
//
// NaN arises only from the arithmetic (∞·0, ∞−∞), so every NaN is the one
// the hardware generates. When both operands of an instruction are NaN, the
// operand order decides which one propagates, and for the portable body
// that order is the compiler's register choice, which the Go spec leaves
// open; with a single NaN value it cannot show.
func FuzzStreamAccum(f *testing.F) {
	f.Add(uint32(16|1<<8|5<<16|3<<24), []byte{1, 2, 3, 250, 40, 7})
	f.Add(uint32(21|2<<8|9<<16|2<<24), []byte{0, 3, 9, 200, 33, 17, 64, 128})
	f.Add(uint32(64|4<<8|11<<16|1<<24), []byte{255, 254, 5})
	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		if !hasAVX2 {
			t.Skip("no AVX2 on this CPU or OS: there is one body")
		}
		special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			5e-324, -math.MaxFloat64, 1e300, 1e-300}
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		value := func() float64 {
			b := next()
			if int(b) < len(special) {
				return special[b]
			}
			return float64(int8(b)) / 7
		}
		// R ≥ 1: at R = 0 the portable body reads no index, so it lets a
		// short index array pass, which the AVX2 body's wrapper rejects.
		r := 1 + int(shape%70)
		k := 1 + int(shape>>8%5)
		nnz := int(shape >> 16 % 12)
		rows := 1 + int(shape>>24%4)
		facs := make([][]float64, k)
		idx := make([][]int32, k)
		for m := range facs {
			facs[m] = make([]float64, rows*r)
			for j := range facs[m] {
				facs[m][j] = value()
			}
			idx[m] = make([]int32, nnz)
			for e := range idx[m] {
				switch b := next(); {
				case b == 255:
					idx[m][e] = -1
				case b == 254:
					idx[m][e] = int32(rows)
				case b == 253 && e > 0:
					idx[m] = idx[m][:e]
				default:
					idx[m][e] = int32(int(b) % rows)
				}
				if len(idx[m]) < nnz {
					break
				}
			}
		}
		vals := make([]float64, nnz)
		for e := range vals {
			vals[e] = value()
		}
		dst := make([]float64, r)
		for j := range dst {
			dst[j] = value()
		}
		port := append([]float64(nil), dst...)
		pAVX := streamAccumWith(true, dst, vals, idx, facs)
		pPort := streamAccumWith(false, port, vals, idx, facs)
		if pAVX != pPort {
			t.Fatalf("R=%d k=%d nnz=%d: avx2 panicked %v, portable panicked %v", r, k, nnz, pAVX, pPort)
		}
		if pAVX {
			return
		}
		for j := range dst {
			if math.Float64bits(dst[j]) != math.Float64bits(port[j]) {
				t.Fatalf("R=%d k=%d nnz=%d: [%d] avx2 %v (%#x), portable %v (%#x)", r, k, nnz, j,
					dst[j], math.Float64bits(dst[j]), port[j], math.Float64bits(port[j]))
			}
		}
	})
}

// gatherAccumWith runs GatherAccum with its AVX2 body selected (avx, which
// only a CPU with AVX2 may ask for) or the portable one, and reports whether
// it panicked.
func gatherAccumWith(avx bool, dst, base []float64, elems []int32, idx [][]int32, facs [][]float64) (panicked bool) {
	saved := hasAVX2
	hasAVX2 = avx
	defer func() {
		hasAVX2 = saved
		panicked = recover() != nil
	}()
	GatherAccum(dst, base, elems, idx, facs)
	return false
}

// TestGatherAccum pins both bodies of the gathered kernel bit for bit to
// the chain run once per entry on the gathered rows (the parent's row
// copied, then each factor row multiplied in, then added), in entry order,
// at 0–6 factors and runs of 0–9 entries over 5 parent rows: every length
// of chainLengths covers the AVX2 body's 16- and 4-column blocks and scalar
// tail, and the portable body's 8- and 4-column blocks and tail, with
// signed zeros and extremes in the parent rows and the factors.
func TestGatherAccum(t *testing.T) {
	for _, avx := range streamBodies(t) {
		rng := rand.New(rand.NewSource(8))
		for _, n := range chainLengths {
			for k := 0; k <= 6; k++ {
				for trial := 0; trial < 10; trial++ {
					const parents, rows = 5, 4
					base := randSpecialVec(parents*n, rng)
					facs := make([][]float64, k)
					idx := make([][]int32, k)
					for m := range facs {
						facs[m] = randSpecialVec(rows*n, rng)
						idx[m] = make([]int32, parents)
						for pe := range idx[m] {
							idx[m][pe] = int32(rng.Intn(rows))
						}
					}
					elems := make([]int32, rng.Intn(10))
					for e := range elems {
						elems[e] = int32(rng.Intn(parents))
					}
					got := randSpecialVec(n, rng)
					want := append([]float64(nil), got...)
					if gatherAccumWith(avx, got, base, elems, idx, facs) {
						t.Fatalf("%s n=%d k=%d run=%d: panicked on valid input", bodyName(avx), n, k, len(elems))
					}
					fr := make([][]float64, k)
					for _, pe := range elems {
						for m := range fr {
							o := int(idx[m][pe]) * n
							fr[m] = facs[m][o : o+n]
						}
						hadamardChain(want, 0, base[int(pe)*n:int(pe+1)*n], fr)
					}
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s n=%d k=%d run=%d: [%d] = %v, per-entry chain gives %v", bodyName(avx), n, k, len(elems), j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestGatherAccumBounds requires both bodies to panic, not to read stray
// memory, in each kind of column block (R = 1, 4 and 16 run only the
// scalar tail, only 4-column blocks and only 16-column blocks; R = 21 runs
// all three): on a parent index of −1, of the most negative int32, equal
// to base's row count, or naming a row that base holds only in part; and,
// in the first and the last factor, on a row index of −1, of the most
// negative int32 or equal to the factor's row count, and on an index array
// shorter than base's row count.
func TestGatherAccumBounds(t *testing.T) {
	const parents, rows = 3, 2
	for _, avx := range streamBodies(t) {
		for _, r := range []int{1, 4, 16, 21} {
			for _, k := range []int{1, 3} {
				for _, m := range []int{0, k - 1} {
					type input struct {
						base  []float64
						elems []int32
						idx   [][]int32
					}
					cases := map[string]func(in *input){
						"parent -1":       func(in *input) { in.elems[1] = -1 },
						"parent MinInt32": func(in *input) { in.elems[1] = math.MinInt32 },
						"parent = rows":   func(in *input) { in.elems[1] = parents },
						"parent partial": func(in *input) {
							in.base = append(in.base, make([]float64, r-1)...)
							in.elems[1] = parents
						},
						"index -1":       func(in *input) { in.idx[m][1] = -1 },
						"index MinInt32": func(in *input) { in.idx[m][1] = math.MinInt32 },
						"index = rows":   func(in *input) { in.idx[m][1] = rows },
						"short index":    func(in *input) { in.idx[m] = in.idx[m][:parents-1] },
					}
					for name, corrupt := range cases {
						in := input{base: make([]float64, parents*r), elems: []int32{0, 1, 2}}
						facs := make([][]float64, k)
						in.idx = make([][]int32, k)
						for f := range facs {
							facs[f] = make([]float64, rows*r)
							in.idx[f] = []int32{0, 1, 1}
						}
						corrupt(&in)
						if !gatherAccumWith(avx, make([]float64, r), in.base, in.elems, in.idx, facs) {
							t.Errorf("%s R=%d k=%d factor %d, %s: no panic", bodyName(avx), r, k, m, name)
						}
					}
				}
			}
		}
	}
}

// FuzzGatherAccum draws R, the factor count (zero included), the run
// length, the parent and factor row counts, the parent rows, factor values
// and dst (infinities, signed zeros, subnormals and extremes included), and
// the parent and row indices (some negative or past the last row, some
// index arrays short, some parent arrays with a partial last row) from the
// input, and requires both bodies to give the same bits or both to panic.
// It skips on a CPU without AVX2. NaN arises only from the arithmetic, as
// in FuzzStreamAccum.
func FuzzGatherAccum(f *testing.F) {
	f.Add(uint32(16|1<<8|5<<16|3<<24), []byte{1, 2, 3, 250, 40, 7})
	f.Add(uint32(21|2<<8|9<<16|2<<24), []byte{0, 3, 9, 200, 33, 17, 64, 128})
	f.Add(uint32(64|4<<8|11<<16|1<<24), []byte{255, 254, 5})
	f.Add(uint32(7|0<<8|4<<16|0xb<<24), []byte{252, 6, 1, 253})
	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		if !hasAVX2 {
			t.Skip("no AVX2 on this CPU or OS: there is one body")
		}
		special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			5e-324, -math.MaxFloat64, 1e300, 1e-300}
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		value := func() float64 {
			b := next()
			if int(b) < len(special) {
				return special[b]
			}
			return float64(int8(b)) / 7
		}
		// index draws a row index below n, or now and then −1, n or the
		// most negative int32.
		index := func(n int) int32 {
			switch b := next(); b {
			case 255:
				return -1
			case 254:
				return int32(n)
			case 252:
				return math.MinInt32
			default:
				return int32(int(b) % n)
			}
		}
		r := 1 + int(shape%70)
		k := int(shape >> 8 % 6)
		run := int(shape >> 16 % 12)
		parents := 1 + int(shape>>24%4)
		rows := 1 + int(shape>>26%4)
		base := make([]float64, parents*r+int(shape>>28%2)*(r-1))
		for j := range base {
			base[j] = value()
		}
		facs := make([][]float64, k)
		idx := make([][]int32, k)
		for m := range facs {
			facs[m] = make([]float64, rows*r)
			for j := range facs[m] {
				facs[m][j] = value()
			}
			n := parents
			if next() == 253 {
				n = int(next()) % parents
			}
			idx[m] = make([]int32, n)
			for pe := range idx[m] {
				idx[m][pe] = index(rows)
			}
		}
		elems := make([]int32, run)
		for e := range elems {
			elems[e] = index(parents)
		}
		dst := make([]float64, r)
		for j := range dst {
			dst[j] = value()
		}
		port := append([]float64(nil), dst...)
		pAVX := gatherAccumWith(true, dst, base, elems, idx, facs)
		pPort := gatherAccumWith(false, port, base, elems, idx, facs)
		if pAVX != pPort {
			t.Fatalf("R=%d k=%d run=%d: avx2 panicked %v, portable panicked %v", r, k, run, pAVX, pPort)
		}
		if pAVX {
			return
		}
		for j := range dst {
			if math.Float64bits(dst[j]) != math.Float64bits(port[j]) {
				t.Fatalf("R=%d k=%d run=%d: [%d] avx2 %v (%#x), portable %v (%#x)", r, k, run, j,
					dst[j], math.Float64bits(dst[j]), port[j], math.Float64bits(port[j]))
			}
		}
	})
}

// scatterAccumWith runs ScatterAccum with its AVX2 body selected (avx,
// which only a CPU with AVX2 may ask for) or the portable one, and reports
// whether it panicked.
func scatterAccumWith(avx bool, out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) (panicked bool) {
	saved := hasAVX2
	hasAVX2 = avx
	defer func() {
		hasAVX2 = saved
		panicked = recover() != nil
	}()
	ScatterAccum(out, r, target, vals, idx, facs)
	return false
}

// perNonzeroScatter is the loop ScatterAccum replaced in the COO engine,
// kept as the tests' and the benchmark's reference: per nonzero, point rows
// at its factor rows, then run one HadamardAccum on its target row of out.
func perNonzeroScatter(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs, rows [][]float64) {
	for e, v := range vals {
		for k := range rows {
			o := int(idx[k][e]) * r
			rows[k] = facs[k][o : o+r]
		}
		t := int(target[e]) * r
		HadamardAccum(out[t:t+r], v, rows)
	}
}

// TestScatterAccum pins both bodies of the scattered kernel bit for bit to
// one HadamardAccum call per nonzero, in nonzero order, at 0–6 factors and
// chunks of 0–9 nonzeros, whose targets are drawn from 3 output rows (so
// they repeat) or are distinct: every length of chainLengths covers the
// AVX2 body's 16- and 4-column blocks and scalar tail, with signed zeros
// and extremes in the values, the factors and out.
func TestScatterAccum(t *testing.T) {
	for _, avx := range streamBodies(t) {
		rng := rand.New(rand.NewSource(10))
		for _, n := range chainLengths {
			for k := 0; k <= 6; k++ {
				for trial := 0; trial < 10; trial++ {
					const rows = 5
					nnz := rng.Intn(10)
					outRows := 3
					target := make([]int32, nnz)
					distinct := trial%2 == 1
					if distinct {
						outRows = 12
						for e, t := range rng.Perm(outRows)[:nnz] {
							target[e] = int32(t)
						}
					} else {
						for e := range target {
							target[e] = int32(rng.Intn(outRows))
						}
					}
					facs := make([][]float64, k)
					idx := make([][]int32, k)
					for m := range facs {
						facs[m] = randSpecialVec(rows*n, rng)
						idx[m] = make([]int32, nnz)
						for e := range idx[m] {
							idx[m][e] = int32(rng.Intn(rows))
						}
					}
					vals := randSpecialVec(nnz, rng)
					got := randSpecialVec(outRows*n, rng)
					want := append([]float64(nil), got...)
					if scatterAccumWith(avx, got, n, target, vals, idx, facs) {
						t.Fatalf("%s n=%d k=%d nnz=%d: panicked on valid input", bodyName(avx), n, k, nnz)
					}
					perNonzeroScatter(want, n, target, vals, idx, facs, make([][]float64, k))
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s n=%d k=%d nnz=%d distinct=%v: [%d] = %v, per-nonzero loop gives %v",
								bodyName(avx), n, k, nnz, distinct, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestScatterAccumBounds requires both bodies to panic, not to read or
// write stray memory, in each kind of column block (R = 1, 4 and 16 run
// only the scalar tail, only 4-column blocks and only 16-column blocks;
// R = 21 runs all three): on a target of −1, of the most negative int32,
// equal to out's row count, or naming a row that out holds only in part;
// on a target array shorter than vals; and, in the first and the last
// factor, on a row index of −1, of the most negative int32 or equal to the
// factor's row count, and on an index array shorter than vals.
func TestScatterAccumBounds(t *testing.T) {
	const outRows, rows = 3, 2
	for _, avx := range streamBodies(t) {
		for _, r := range []int{1, 4, 16, 21} {
			for _, k := range []int{1, 3} {
				for _, m := range []int{0, k - 1} {
					type input struct {
						out    []float64
						target []int32
						idx    [][]int32
					}
					cases := map[string]func(in *input){
						"target -1":       func(in *input) { in.target[1] = -1 },
						"target MinInt32": func(in *input) { in.target[1] = math.MinInt32 },
						"target = rows":   func(in *input) { in.target[1] = outRows },
						"target partial": func(in *input) {
							in.out = append(in.out, make([]float64, r-1)...)
							in.target[1] = outRows
						},
						"short target":   func(in *input) { in.target = in.target[:2] },
						"index -1":       func(in *input) { in.idx[m][1] = -1 },
						"index MinInt32": func(in *input) { in.idx[m][1] = math.MinInt32 },
						"index = rows":   func(in *input) { in.idx[m][1] = rows },
						"short index":    func(in *input) { in.idx[m] = in.idx[m][:2] },
					}
					for name, corrupt := range cases {
						in := input{out: make([]float64, outRows*r), target: []int32{0, 2, 1}}
						facs := make([][]float64, k)
						in.idx = make([][]int32, k)
						for f := range facs {
							facs[f] = make([]float64, rows*r)
							in.idx[f] = []int32{0, 1, 1}
						}
						corrupt(&in)
						if !scatterAccumWith(avx, in.out, r, in.target, []float64{1, 2, 3}, in.idx, facs) {
							t.Errorf("%s R=%d k=%d factor %d, %s: no panic", bodyName(avx), r, k, m, name)
						}
					}
				}
			}
		}
	}
}

// FuzzScatterAccum draws R, the factor count (zero included), the chunk
// size, the output and factor row counts, values, factors and out
// (infinities, signed zeros, subnormals and extremes included), and the
// targets and row indices (some negative or past the last row, some arrays
// short, some outputs with a partial last row) from the input, and
// requires both bodies to give the same bits or both to panic. It skips on
// a CPU without AVX2. NaN arises only from the arithmetic, as in
// FuzzStreamAccum.
func FuzzScatterAccum(f *testing.F) {
	f.Add(uint32(16|1<<8|5<<16|3<<24), []byte{1, 2, 3, 250, 40, 7})
	f.Add(uint32(21|2<<8|9<<16|2<<24), []byte{0, 3, 9, 200, 33, 17, 64, 128})
	f.Add(uint32(64|4<<8|11<<16|1<<24), []byte{255, 254, 5})
	f.Add(uint32(7|0<<8|4<<16|0xb<<24), []byte{252, 6, 1, 253})
	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		if !hasAVX2 {
			t.Skip("no AVX2 on this CPU or OS: there is one body")
		}
		special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			5e-324, -math.MaxFloat64, 1e300, 1e-300}
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		value := func() float64 {
			b := next()
			if int(b) < len(special) {
				return special[b]
			}
			return float64(int8(b)) / 7
		}
		// index draws a row index below n, or now and then −1, n or the
		// most negative int32.
		index := func(n int) int32 {
			switch b := next(); b {
			case 255:
				return -1
			case 254:
				return int32(n)
			case 252:
				return math.MinInt32
			default:
				return int32(int(b) % n)
			}
		}
		// indices draws nnz indices below n, or now and then fewer.
		indices := func(nnz, n int) []int32 {
			if next() == 253 && nnz > 0 {
				nnz = int(next()) % nnz
			}
			s := make([]int32, nnz)
			for e := range s {
				s[e] = index(n)
			}
			return s
		}
		r := int(shape % 70)
		k := int(shape >> 8 % 6)
		nnz := int(shape >> 16 % 12)
		outRows := 1 + int(shape>>24%4)
		rows := 1 + int(shape>>26%4)
		out := make([]float64, outRows*r+int(shape>>28%2)*max(r-1, 0))
		for j := range out {
			out[j] = value()
		}
		facs := make([][]float64, k)
		idx := make([][]int32, k)
		for m := range facs {
			facs[m] = make([]float64, rows*r)
			for j := range facs[m] {
				facs[m][j] = value()
			}
			idx[m] = indices(nnz, rows)
		}
		target := indices(nnz, outRows)
		vals := make([]float64, nnz)
		for e := range vals {
			vals[e] = value()
		}
		port := append([]float64(nil), out...)
		pAVX := scatterAccumWith(true, out, r, target, vals, idx, facs)
		pPort := scatterAccumWith(false, port, r, target, vals, idx, facs)
		if pAVX != pPort {
			t.Fatalf("R=%d k=%d nnz=%d: avx2 panicked %v, portable panicked %v", r, k, nnz, pAVX, pPort)
		}
		if pAVX {
			return
		}
		for j := range out {
			if math.Float64bits(out[j]) != math.Float64bits(port[j]) {
				t.Fatalf("R=%d k=%d nnz=%d: [%d] avx2 %v (%#x), portable %v (%#x)", r, k, nnz, j,
					out[j], math.Float64bits(out[j]), port[j], math.Float64bits(port[j]))
			}
		}
	})
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
		HadamardAccum(dst, 2, rows6)
		StreamAccum(dst, a[:3], [][]int32{{0, 0, 0}, {0, 0, 0}}, rows)
		GatherAccum(dst, a, []int32{0, 0}, [][]int32{{0}, {0}}, rows)
	}); n != 0 {
		t.Errorf("primitives allocate %v/op", n)
	}
}
