package kernel

import (
	"fmt"
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

// streamBodies lists the bodies of StreamRuns, GatherRuns and ScatterAccum
// this host runs: the portable one, and the AVX2 one when the CPU has it.
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

// withBody runs fn with the AVX2 bodies selected (avx, which only a CPU
// with AVX2 may ask for) or the portable ones, and reports whether it
// panicked.
func withBody(avx bool, fn func()) (panicked bool) {
	saved := hasAVX2
	hasAVX2 = avx
	defer func() {
		hasAVX2 = saved
		panicked = recover() != nil
	}()
	fn()
	return false
}

// testChunk is one scheduled chunk of a run kernel's test: runs
// ptr[i]:ptr[i+1] into entry arrays of n entries, whose destination rows
// are rows[i] of an out-row output, or row i when rows is nil.
type testChunk struct {
	ptr    []int64
	rows   []int32
	n, out int
}

// randChunk draws up to four runs of up to 9 entries, a quarter of them
// empty, that start past up to two leading entries and leave up to two
// trailing ones, so the pointers index whole entry arrays. With mapped
// set, a row map sends the runs to distinct rows, in shuffled order, of an
// output two rows taller than the run count.
func randChunk(rng *rand.Rand, mapped bool) testChunk {
	e := int64(rng.Intn(3))
	c := testChunk{ptr: []int64{e}}
	for i := rng.Intn(5); i > 0; i-- {
		if rng.Intn(4) > 0 {
			e += int64(1 + rng.Intn(9))
		}
		c.ptr = append(c.ptr, e)
	}
	c.n = int(e) + rng.Intn(3)
	c.out = len(c.ptr) - 1
	if mapped {
		c.out += 2
		perm := rng.Perm(c.out)
		c.rows = make([]int32, len(c.ptr)-1)
		for i := range c.rows {
			c.rows[i] = int32(perm[i])
		}
	}
	return c
}

// row returns run i's destination row.
func (c testChunk) row(i int) int {
	if c.rows == nil {
		return i
	}
	return int(c.rows[i])
}

// dst draws the chunk's output at rank r: NaN in every destination row, so
// a body that adds to the row instead of setting it shows, and signed
// zeros and extremes in the rows no run maps to, which must not change.
func (c testChunk) dst(rng *rand.Rand, r int) []float64 {
	d := randSpecialVec(c.out*r, rng)
	for i := 0; i+1 < len(c.ptr); i++ {
		for j := range d[c.row(i)*r:][:r] {
			d[c.row(i)*r+j] = math.NaN()
		}
	}
	return d
}

// sameBits fails the test unless got and want hold the same bits.
func sameBits(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: [%d] = %v (%#x), reference gives %v (%#x)", what, j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// randIndices draws k index arrays of n row indices below rows.
func randIndices(rng *rand.Rand, k, n, rows int) [][]int32 {
	idx := make([][]int32, k)
	for m := range idx {
		idx[m] = make([]int32, n)
		for e := range idx[m] {
			idx[m][e] = int32(rng.Intn(rows))
		}
	}
	return idx
}

// TestStreamRuns pins both bodies of the streamed kernel bit for bit to
// clearing each run's row and calling HadamardAccum once per nonzero, in
// nonzero order, at 1–6 factors, over chunks of up to four runs of up to 9
// nonzeros (empty runs included, whose rows must come out +0), with and
// without a row map, into rows pre-filled with NaN: every length of
// chainLengths covers the AVX2 body's 16- and 4-column blocks and scalar
// tail, and the portable body's 8- and 4-column blocks and tail, with
// signed zeros and extremes in the values and the factors.
func TestStreamRuns(t *testing.T) {
	for _, avx := range streamBodies(t) {
		rng := rand.New(rand.NewSource(9))
		for _, n := range chainLengths {
			for k := 1; k <= 6; k++ {
				for trial := 0; trial < 10; trial++ {
					const rows = 5
					c := randChunk(rng, trial%2 == 1)
					facs := make([][]float64, k)
					for m := range facs {
						facs[m] = randSpecialVec(rows*n, rng)
					}
					idx := randIndices(rng, k, c.n, rows)
					vals := randSpecialVec(c.n, rng)
					got := c.dst(rng, n)
					want := append([]float64(nil), got...)
					fr := make([][]float64, k)
					for i := 0; i+1 < len(c.ptr); i++ {
						d := want[c.row(i)*n:][:n]
						clear(d)
						for e := c.ptr[i]; e < c.ptr[i+1]; e++ {
							for m := range fr {
								o := int(idx[m][e]) * n
								fr[m] = facs[m][o : o+n]
							}
							HadamardAccum(d, vals[e], fr)
						}
					}
					what := fmt.Sprintf("%s n=%d k=%d ptr=%v rows=%v", bodyName(avx), n, k, c.ptr, c.rows)
					if withBody(avx, func() { StreamRuns(got, n, c.ptr, c.rows, vals, idx, facs) }) {
						t.Fatalf("%s: panicked on valid input", what)
					}
					sameBits(t, got, want, what)
				}
			}
		}
	}
}

// chunkArgs are the destination and run arguments both run kernels take.
type chunkArgs struct {
	dst  []float64
	ptr  []int64
	rows []int32
}

// validChunk is a well-formed chunk over three entries at rank r: three
// runs, the middle one empty, mapped to rows 2, 0 and 1 of a three-row
// output.
func validChunk(r int) chunkArgs {
	return chunkArgs{dst: make([]float64, 3*r), ptr: []int64{0, 1, 1, 3}, rows: []int32{2, 0, 1}}
}

// chunkFaults lists the run and destination faults both run kernels must
// reject on validChunk(r): a decreasing, negative or past-the-end run
// pointer; a mapped row of −1, of the most negative int32, equal to the
// output's row count, or naming a row the output holds only in part; a row
// map shorter than the runs; and, without a row map, an output with no
// room for the last run's row.
func chunkFaults(r int) map[string]func(c *chunkArgs) {
	return map[string]func(c *chunkArgs){
		"ptr decreasing":      func(c *chunkArgs) { c.ptr[2] = 0 },
		"ptr negative":        func(c *chunkArgs) { c.ptr[0] = -1 },
		"ptr past entries":    func(c *chunkArgs) { c.ptr[3] = 4 },
		"row -1":              func(c *chunkArgs) { c.rows[1] = -1 },
		"row MinInt32":        func(c *chunkArgs) { c.rows[1] = math.MinInt32 },
		"row = rows":          func(c *chunkArgs) { c.rows[1] = 3 },
		"row partial":         func(c *chunkArgs) { c.dst = append(c.dst, make([]float64, r-1)...); c.rows[1] = 3 },
		"short row map":       func(c *chunkArgs) { c.rows = c.rows[:2] },
		"unmapped, short dst": func(c *chunkArgs) { c.rows = nil; c.dst = c.dst[:2*r] },
	}
}

// TestStreamRunsBounds requires both bodies to panic, not to read or write
// stray memory, in each kind of column block (R = 1, 4 and 16 run only
// the scalar tail, only 4-column blocks and only 16-column blocks; R = 21
// runs all three): on each of chunkFaults, and, in the first and the last
// factor, on a row index of −1, of the most negative int32 or equal to
// the factor's row count, and on an index array shorter than the runs.
// The unaltered chunk must not panic.
func TestStreamRunsBounds(t *testing.T) {
	const rows = 3
	for _, avx := range streamBodies(t) {
		for _, r := range []int{1, 4, 16, 21} {
			for _, k := range []int{1, 3} {
				for _, m := range []int{0, k - 1} {
					type input struct {
						chunkArgs
						idx [][]int32
					}
					cases := map[string]func(in *input){
						"valid":          nil,
						"index -1":       func(in *input) { in.idx[m][1] = -1 },
						"index MinInt32": func(in *input) { in.idx[m][1] = math.MinInt32 },
						"index = rows":   func(in *input) { in.idx[m][1] = rows },
						"short index":    func(in *input) { in.idx[m] = in.idx[m][:1] },
					}
					for name, fault := range chunkFaults(r) {
						cases[name] = func(in *input) { fault(&in.chunkArgs) }
					}
					for name, corrupt := range cases {
						in := input{chunkArgs: validChunk(r)}
						facs := make([][]float64, k)
						in.idx = make([][]int32, k)
						for f := range facs {
							facs[f] = make([]float64, rows*r)
							in.idx[f] = []int32{0, 1, 2}
						}
						if corrupt != nil {
							corrupt(&in)
						}
						panicked := withBody(avx, func() {
							StreamRuns(in.dst, r, in.ptr, in.rows, []float64{1, 2, 3}, in.idx, facs)
						})
						if panicked != (corrupt != nil) {
							t.Errorf("%s R=%d k=%d factor %d, %s: panicked %v", bodyName(avx), r, k, m, name, panicked)
						}
					}
				}
			}
		}
	}
}

// fuzzDraw reads a fuzz input's bytes in a cycle, and draws values and
// indices from them for the run kernels' fuzz targets.
type fuzzDraw struct {
	data []byte
	pos  int
}

func (d *fuzzDraw) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[d.pos%len(d.data)]
	d.pos++
	return b
}

// value draws a float64: infinities, signed zeros, subnormals and extremes
// now and then, otherwise a small multiple of 1/7.
func (d *fuzzDraw) value() float64 {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -math.MaxFloat64, 1e300, 1e-300}
	b := d.next()
	if int(b) < len(special) {
		return special[b]
	}
	return float64(int8(b)) / 7
}

// index draws a row index below n, or now and then −1, n or the most
// negative int32.
func (d *fuzzDraw) index(n int) int32 {
	switch b := d.next(); b {
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

// chunk draws a chunk over n entries at rank r and the output it writes:
// each entry may close a run before it (now and then twice, an empty run),
// a pointer now and then decreases or passes n, and either a row map
// (rows drawn by index, so now and then out of range) or none (an output
// now and then one row short) sends the runs to their rows. The output
// may end in a partial row, and holds drawn values.
func (d *fuzzDraw) chunk(n, r int) chunkArgs {
	c := chunkArgs{ptr: []int64{0}}
	for e := 0; e < n; e++ {
		switch b := d.next(); {
		case b == 251:
			c.ptr = append(c.ptr, c.ptr[len(c.ptr)-1]-1)
		case b == 250:
			c.ptr = append(c.ptr, int64(n)+1)
		case b%4 == 0:
			c.ptr = append(c.ptr, int64(e), int64(e))
		case b%2 == 0:
			c.ptr = append(c.ptr, int64(e))
		}
	}
	c.ptr = append(c.ptr, int64(n))
	runs := len(c.ptr) - 1
	out := runs
	if b := d.next(); b%2 == 0 {
		out = runs + int(b>>1%3)
		c.rows = make([]int32, runs)
		for i := range c.rows {
			c.rows[i] = d.index(max(out, 1))
		}
	} else if b == 253 {
		out = max(out-1, 0)
	}
	c.dst = make([]float64, out*r+int(d.next()%2)*(r-1))
	for j := range c.dst {
		c.dst[j] = d.value()
	}
	return c
}

// FuzzStreamAccum draws R, the factor count, the entry count, the factor
// row count, values (infinities, signed zeros, subnormals and extremes
// included) and row indices (some negative or past the last row, some
// index arrays short) from the input, and fuzzDraw.chunk's runs and
// output, and requires both bodies of StreamRuns to give the same bits or
// both to panic. It skips on a CPU without AVX2.
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
		d := &fuzzDraw{data: data}
		r := 1 + int(shape%70)
		k := 1 + int(shape>>8%5)
		nnz := int(shape >> 16 % 12)
		rows := 1 + int(shape>>24%4)
		facs := make([][]float64, k)
		idx := make([][]int32, k)
		for m := range facs {
			facs[m] = make([]float64, rows*r)
			for j := range facs[m] {
				facs[m][j] = d.value()
			}
			idx[m] = make([]int32, nnz)
			for e := range idx[m] {
				switch b := d.next(); {
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
			vals[e] = d.value()
		}
		c := d.chunk(nnz, r)
		port := append([]float64(nil), c.dst...)
		pAVX := withBody(true, func() { StreamRuns(c.dst, r, c.ptr, c.rows, vals, idx, facs) })
		pPort := withBody(false, func() { StreamRuns(port, r, c.ptr, c.rows, vals, idx, facs) })
		what := fmt.Sprintf("R=%d k=%d nnz=%d ptr=%v rows=%v", r, k, nnz, c.ptr, c.rows)
		if pAVX != pPort {
			t.Fatalf("%s: avx2 panicked %v, portable panicked %v", what, pAVX, pPort)
		}
		if !pAVX {
			sameBits(t, c.dst, port, what+" avx2 against portable")
		}
	})
}

// TestGatherRuns pins both bodies of the gathered kernel bit for bit to
// clearing each run's row and running the chain once per entry on the
// gathered rows (the parent's row copied, then each factor row multiplied
// in, then added), in entry order, at 0–6 factors, over chunks of up to
// four runs of up to 9 entries over 5 parent rows (empty runs included,
// whose rows must come out +0), with and without a row map, into rows
// pre-filled with NaN: every length of chainLengths covers the AVX2 body's
// 16- and 4-column blocks and scalar tail, and the portable body's 8- and
// 4-column blocks and tail, with signed zeros and extremes in the parent
// rows and the factors.
func TestGatherRuns(t *testing.T) {
	for _, avx := range streamBodies(t) {
		rng := rand.New(rand.NewSource(8))
		for _, n := range chainLengths {
			for k := 0; k <= 6; k++ {
				for trial := 0; trial < 10; trial++ {
					const parents, rows = 5, 4
					c := randChunk(rng, trial%2 == 1)
					base := randSpecialVec(parents*n, rng)
					facs := make([][]float64, k)
					for m := range facs {
						facs[m] = randSpecialVec(rows*n, rng)
					}
					idx := randIndices(rng, k, parents, rows)
					elems := randIndices(rng, 1, c.n, parents)[0]
					got := c.dst(rng, n)
					want := append([]float64(nil), got...)
					fr := make([][]float64, k)
					for i := 0; i+1 < len(c.ptr); i++ {
						d := want[c.row(i)*n:][:n]
						clear(d)
						for _, pe := range elems[c.ptr[i]:c.ptr[i+1]] {
							for m := range fr {
								o := int(idx[m][pe]) * n
								fr[m] = facs[m][o : o+n]
							}
							hadamardChain(d, 0, base[int(pe)*n:int(pe+1)*n], fr)
						}
					}
					what := fmt.Sprintf("%s n=%d k=%d ptr=%v rows=%v", bodyName(avx), n, k, c.ptr, c.rows)
					if withBody(avx, func() { GatherRuns(got, n, c.ptr, c.rows, base, elems, idx, facs) }) {
						t.Fatalf("%s: panicked on valid input", what)
					}
					sameBits(t, got, want, what)
				}
			}
		}
	}
}

// TestGatherRunsBounds requires both bodies to panic, not to read or write
// stray memory, in each kind of column block (R = 1, 4 and 16 run only the
// scalar tail, only 4-column blocks and only 16-column blocks; R = 21 runs
// all three): on each of chunkFaults; on a parent index of −1, of the most
// negative int32, equal to base's row count, or naming a row that base
// holds only in part; and, in the first and the last factor, on a row
// index of −1, of the most negative int32 or equal to the factor's row
// count, and on an index array shorter than base's row count. The
// unaltered chunk must not panic.
func TestGatherRunsBounds(t *testing.T) {
	const parents, rows = 3, 2
	for _, avx := range streamBodies(t) {
		for _, r := range []int{1, 4, 16, 21} {
			for _, k := range []int{1, 3} {
				for _, m := range []int{0, k - 1} {
					type input struct {
						chunkArgs
						base  []float64
						elems []int32
						idx   [][]int32
					}
					cases := map[string]func(in *input){
						"valid":           nil,
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
					for name, fault := range chunkFaults(r) {
						cases[name] = func(in *input) { fault(&in.chunkArgs) }
					}
					for name, corrupt := range cases {
						in := input{chunkArgs: validChunk(r), base: make([]float64, parents*r), elems: []int32{0, 1, 2}}
						facs := make([][]float64, k)
						in.idx = make([][]int32, k)
						for f := range facs {
							facs[f] = make([]float64, rows*r)
							in.idx[f] = []int32{0, 1, 1}
						}
						if corrupt != nil {
							corrupt(&in)
						}
						panicked := withBody(avx, func() {
							GatherRuns(in.dst, r, in.ptr, in.rows, in.base, in.elems, in.idx, facs)
						})
						if panicked != (corrupt != nil) {
							t.Errorf("%s R=%d k=%d factor %d, %s: panicked %v", bodyName(avx), r, k, m, name, panicked)
						}
					}
				}
			}
		}
	}
}

// FuzzGatherAccum draws R, the factor count (zero included), the entry
// count, the parent and factor row counts, the parent rows and factor
// values (infinities, signed zeros, subnormals and extremes included), and
// the parent and row indices (some negative or past the last row, some
// index arrays short, some parent arrays with a partial last row) from the
// input, and fuzzDraw.chunk's runs and output, and requires both bodies of
// GatherRuns to give the same bits or both to panic. It skips on a CPU
// without AVX2. NaN arises only from the arithmetic, as in
// FuzzStreamAccum.
func FuzzGatherAccum(f *testing.F) {
	f.Add(uint32(16|1<<8|5<<16|3<<24), []byte{1, 2, 3, 250, 40, 7})
	f.Add(uint32(21|2<<8|9<<16|2<<24), []byte{0, 3, 9, 200, 33, 17, 64, 128})
	f.Add(uint32(64|4<<8|11<<16|1<<24), []byte{255, 254, 5})
	f.Add(uint32(7|0<<8|4<<16|0xb<<24), []byte{252, 6, 1, 253})
	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		if !hasAVX2 {
			t.Skip("no AVX2 on this CPU or OS: there is one body")
		}
		d := &fuzzDraw{data: data}
		r := 1 + int(shape%70)
		k := int(shape >> 8 % 6)
		run := int(shape >> 16 % 12)
		parents := 1 + int(shape>>24%4)
		rows := 1 + int(shape>>26%4)
		base := make([]float64, parents*r+int(shape>>28%2)*(r-1))
		for j := range base {
			base[j] = d.value()
		}
		facs := make([][]float64, k)
		idx := make([][]int32, k)
		for m := range facs {
			facs[m] = make([]float64, rows*r)
			for j := range facs[m] {
				facs[m][j] = d.value()
			}
			n := parents
			if d.next() == 253 {
				n = int(d.next()) % parents
			}
			idx[m] = make([]int32, n)
			for pe := range idx[m] {
				idx[m][pe] = d.index(rows)
			}
		}
		elems := make([]int32, run)
		for e := range elems {
			elems[e] = d.index(parents)
		}
		c := d.chunk(run, r)
		port := append([]float64(nil), c.dst...)
		pAVX := withBody(true, func() { GatherRuns(c.dst, r, c.ptr, c.rows, base, elems, idx, facs) })
		pPort := withBody(false, func() { GatherRuns(port, r, c.ptr, c.rows, base, elems, idx, facs) })
		what := fmt.Sprintf("R=%d k=%d run=%d ptr=%v rows=%v", r, k, run, c.ptr, c.rows)
		if pAVX != pPort {
			t.Fatalf("%s: avx2 panicked %v, portable panicked %v", what, pAVX, pPort)
		}
		if !pAVX {
			sameBits(t, c.dst, port, what+" avx2 against portable")
		}
	})
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
					if withBody(avx, func() { ScatterAccum(got, n, target, vals, idx, facs) }) {
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
						if !withBody(avx, func() { ScatterAccum(in.out, r, in.target, []float64{1, 2, 3}, in.idx, facs) }) {
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
		d := &fuzzDraw{data: data}
		// indices draws nnz indices below n, or now and then fewer.
		indices := func(nnz, n int) []int32 {
			if d.next() == 253 && nnz > 0 {
				nnz = int(d.next()) % nnz
			}
			s := make([]int32, nnz)
			for e := range s {
				s[e] = d.index(n)
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
			out[j] = d.value()
		}
		facs := make([][]float64, k)
		idx := make([][]int32, k)
		for m := range facs {
			facs[m] = make([]float64, rows*r)
			for j := range facs[m] {
				facs[m][j] = d.value()
			}
			idx[m] = indices(nnz, rows)
		}
		target := indices(nnz, outRows)
		vals := make([]float64, nnz)
		for e := range vals {
			vals[e] = d.value()
		}
		port := append([]float64(nil), out...)
		pAVX := withBody(true, func() { ScatterAccum(out, r, target, vals, idx, facs) })
		pPort := withBody(false, func() { ScatterAccum(port, r, target, vals, idx, facs) })
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
		StreamRuns(dst, 8, []int64{0, 1, 3}, nil, a[:3], [][]int32{{0, 0, 0}, {0, 0, 0}}, rows)
		GatherRuns(dst, 17, []int64{0, 2}, []int32{0}, a, []int32{0, 0}, [][]int32{{0}, {0}}, rows)
	}); n != 0 {
		t.Errorf("primitives allocate %v/op", n)
	}
}
