package kernel

// The fused Hadamard-accumulate kernels are the inner loop of every sparse
// MTTKRP engine: one nonzero's value (HadamardAccum, StreamRuns,
// ScatterAccum) or one parent element's cached R-row (GatherRuns) is
// multiplied by k factor rows and the product is accumulated into an
// output row in a single pass over the rank dimension, with no temporary
// R-vector. StreamRuns and GatherRuns take one scheduled chunk of runs,
// each run a contiguous group of entries (nonzeros or parent elements)
// that reduce into one row, and set each run's row to its sum;
// ScatterAccum adds each nonzero of a chunk into its own target row.
//
// Association. The product associates strictly left to right, ((v·a)·b)·c…,
// and is added to dst once at the end. That is the order of the unfused
// chain Scale(t, a, v); MulInto(t, b); …; AddInto(dst, t), so the fused
// kernels are bit-identical to it. Every body keeps that order: a running
// product is extended as t[j] = t[j] * e[j] * f[j], never as
// t[j] *= e[j] * f[j], which would multiply e·f first.
//
// Every product is wrapped in an explicit float64 conversion before the
// add (here and in FMAInto and Axpy, which the one-row cases use). The Go
// spec makes the conversion a rounding point, so the compiler may not
// contract `d += a*b` into one fused multiply-add, which the arm64
// compiler otherwise does. The chain stores its product in a row before
// adding, so only an unfused add matches it on every target.
//
// Shape. One to four rows run 4-wide unrolled bodies; four rows also have
// a fixed-size body at R = 16, the rank of the order-5 benchmark workload,
// where it measured faster when that workload ran it (on a CPU with AVX2
// it now runs ScatterAccum's assembly body instead). More rows (tensor
// order ≥ 6) are folded four at a time into a stack-local block of the
// running product (hadamardBlocked): a single loop with an inner loop over
// the rows for each j is markedly slower than the chain it replaces.
//
// StreamRuns, GatherRuns and ScatterAccum each have two bodies. The
// portable streamRun takes the columns in blocks of 8, then 4, then one at
// a time, with the accumulators in locals across the run; gatherRun and
// scatterAccumGeneric run one entry or nonzero at a time through the fused
// chain of its row count. On amd64, when CPUID reports AVX2 and XCR0 shows
// the OS saving the YMM state (hasAVX2, set once at package
// initialization), an assembly body runs instead (stream_amd64.s): blocks
// of 16 columns in four YMM registers, then blocks of 4, then a scalar
// tail. StreamRuns and GatherRuns keep a run's block accumulators in
// registers across the run, started at +0 (VXORPD) and stored once per
// block, so a run's row is written once and never read; a sum that starts
// at +0 is exactly what clearing the row and adding into it gave, so the
// bits are those of the per-entry chain into a cleared row. ScatterAccum
// loads and stores each nonzero's target block, since consecutive
// nonzeros target different rows. Per entry the body starts the running
// product from the broadcast value (StreamRuns, ScatterAccum) or from the
// parent's row (GatherRuns), multiplies it by each factor row in k order
// (VMULPD), and adds the product once (VADDPD). Each lane thus does for
// its column exactly the IEEE multiplies and add of the portable body, in
// the same order and with no fused multiply-add, so the two bodies agree
// bit for bit. Bounds: the Go wrappers check the run pointers (from zero,
// never decreasing, within the entry array), the row map's length or the
// room for one row per run, the factor and index counts and the index
// lengths; the assembly checks every factor row,
// idx·R·8 + blockEnd ≤ len(facs[k])·8, and every mapped destination,
// parent or target row whole, i·R·8 + R·8 ≤ len(dst, base or out)·8, with
// each index loaded zero-extended, so a negative index becomes a huge row
// and fails the check instead of reading before the array. A failed check
// returns false, and the wrapper panics as the portable body would.

// HadamardAccum writes dst[j] += v · Π_k rows[k][j] in one pass: the
// broadcast of the scalar, the k Hadamard multiplies, and the accumulation
// are fused. rows may be empty, in which case it degenerates to
// dst[j] += v.
func HadamardAccum(dst []float64, v float64, rows [][]float64) {
	switch len(rows) {
	case 0:
		for j := range dst {
			dst[j] += v
		}
	case 1:
		Axpy(dst, v, rows[0])
	case 2:
		accum2(dst, v, rows[0], rows[1])
	case 3:
		accum3(dst, v, rows[0], rows[1], rows[2])
	case 4:
		accum4(dst, v, rows[0], rows[1], rows[2], rows[3])
	default:
		hadamardBlocked(dst, v, rows)
	}
}

// hadamardBlock is the column width of the stack-local running-product
// block of the more-than-four-rows path.
const hadamardBlock = 32

// hadamardBlocked is HadamardAccum's body above four rows. Per block of at
// most hadamardBlock columns, the running product is formed from v and the
// rows four at a time; the last one to four rows are fused with the add
// into dst.
func hadamardBlocked(dst []float64, v float64, rows [][]float64) {
	var buf [hadamardBlock]float64
	last := rows[(len(rows)-1)/4*4:]
	head := rows[:len(rows)-len(last)]
	for lo := 0; lo < len(dst); lo += hadamardBlock {
		t := buf[:min(hadamardBlock, len(dst)-lo)]
		prod4(t, v, head[:4], lo)
		for g := 4; g < len(head); g += 4 {
			mul4(t, head[g:g+4], lo)
		}
		d := dst[lo : lo+len(t)]
		switch len(last) {
		case 1:
			FMAInto(d, t, last[0][lo:])
		case 2:
			accumVec2(d, t, last[0][lo:], last[1][lo:])
		case 3:
			accumVec3(d, t, last[0][lo:], last[1][lo:], last[2][lo:])
		case 4:
			accumVec4(d, t, last[0][lo:], last[1][lo:], last[2][lo:], last[3][lo:])
		}
	}
}

// prod4 starts the running-product block t from v and four rows read from
// column off: t[j] = v·a[off+j]·b[off+j]·c[off+j]·e[off+j].
func prod4(t []float64, v float64, g [][]float64, off int) {
	n := len(t)
	a, b, c, e := g[0][off:][:n], g[1][off:][:n], g[2][off:][:n], g[3][off:][:n]
	for j := range t {
		t[j] = v * a[j] * b[j] * c[j] * e[j]
	}
}

// mul4 extends the running-product block t by four rows read from column
// off: t[j] = t[j]·a[off+j]·b[off+j]·c[off+j]·e[off+j].
func mul4(t []float64, g [][]float64, off int) {
	n := len(t)
	a, b, c, e := g[0][off:][:n], g[1][off:][:n], g[2][off:][:n], g[3][off:][:n]
	for j := range t {
		t[j] = t[j] * a[j] * b[j] * c[j] * e[j]
	}
}

// accum2 writes dst[j] += v·a[j]·b[j].
func accum2(dst []float64, v float64, a, b []float64) {
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += float64(v * a[j] * b[j])
		dst[j+1] += float64(v * a[j+1] * b[j+1])
		dst[j+2] += float64(v * a[j+2] * b[j+2])
		dst[j+3] += float64(v * a[j+3] * b[j+3])
	}
	for ; j < len(dst); j++ {
		dst[j] += float64(v * a[j] * b[j])
	}
}

// accum3 writes dst[j] += v·a[j]·b[j]·c[j].
func accum3(dst []float64, v float64, a, b, c []float64) {
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += float64(v * a[j] * b[j] * c[j])
		dst[j+1] += float64(v * a[j+1] * b[j+1] * c[j+1])
		dst[j+2] += float64(v * a[j+2] * b[j+2] * c[j+2])
		dst[j+3] += float64(v * a[j+3] * b[j+3] * c[j+3])
	}
	for ; j < len(dst); j++ {
		dst[j] += float64(v * a[j] * b[j] * c[j])
	}
}

// accum4 writes dst[j] += v·a[j]·b[j]·c[j]·e[j].
func accum4(dst []float64, v float64, a, b, c, e []float64) {
	if len(dst) == 16 {
		d, x, y, z, w := (*[16]float64)(dst), (*[16]float64)(a), (*[16]float64)(b), (*[16]float64)(c), (*[16]float64)(e)
		for j := range d {
			d[j] += float64(v * x[j] * y[j] * z[j] * w[j])
		}
		return
	}
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += float64(v * a[j] * b[j] * c[j] * e[j])
		dst[j+1] += float64(v * a[j+1] * b[j+1] * c[j+1] * e[j+1])
		dst[j+2] += float64(v * a[j+2] * b[j+2] * c[j+2] * e[j+2])
		dst[j+3] += float64(v * a[j+3] * b[j+3] * c[j+3] * e[j+3])
	}
	for ; j < len(dst); j++ {
		dst[j] += float64(v * a[j] * b[j] * c[j] * e[j])
	}
}

// accumVec2 writes dst[j] += base[j]·a[j]·b[j].
func accumVec2(dst, base, a, b []float64) {
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += float64(base[j] * a[j] * b[j])
		dst[j+1] += float64(base[j+1] * a[j+1] * b[j+1])
		dst[j+2] += float64(base[j+2] * a[j+2] * b[j+2])
		dst[j+3] += float64(base[j+3] * a[j+3] * b[j+3])
	}
	for ; j < len(dst); j++ {
		dst[j] += float64(base[j] * a[j] * b[j])
	}
}

// accumVec3 writes dst[j] += base[j]·a[j]·b[j]·c[j].
func accumVec3(dst, base, a, b, c []float64) {
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += float64(base[j] * a[j] * b[j] * c[j])
		dst[j+1] += float64(base[j+1] * a[j+1] * b[j+1] * c[j+1])
		dst[j+2] += float64(base[j+2] * a[j+2] * b[j+2] * c[j+2])
		dst[j+3] += float64(base[j+3] * a[j+3] * b[j+3] * c[j+3])
	}
	for ; j < len(dst); j++ {
		dst[j] += float64(base[j] * a[j] * b[j] * c[j])
	}
}

// accumVec4 writes dst[j] += base[j]·a[j]·b[j]·c[j]·e[j].
func accumVec4(dst, base, a, b, c, e []float64) {
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += float64(base[j] * a[j] * b[j] * c[j] * e[j])
		dst[j+1] += float64(base[j+1] * a[j+1] * b[j+1] * c[j+1] * e[j+1])
		dst[j+2] += float64(base[j+2] * a[j+2] * b[j+2] * c[j+2] * e[j+2])
		dst[j+3] += float64(base[j+3] * a[j+3] * b[j+3] * c[j+3] * e[j+3])
	}
	for ; j < len(dst); j++ {
		dst[j] += float64(base[j] * a[j] * b[j] * c[j] * e[j])
	}
}

// checkRuns panics unless a StreamRuns or GatherRuns chunk is well formed:
// R ≥ 0; run pointers that start at or above zero, never decrease and end
// at or below n, the length of the entry array they point into (vals for
// StreamRuns, elems for GatherRuns); a row map with an entry for every
// run, or, without one, room in dst for one row per run; and R no larger
// than len(dst) when there is a run, which bounds R·8 for the AVX2 bodies'
// row offsets as checkScatter does. It returns the number of runs. Both
// bodies run behind it, so they reject the same inputs.
func checkRuns(name string, dst []float64, r int, ptr []int64, rows []int32, n int) int {
	if r < 0 {
		panic("kernel: " + name + " negative R")
	}
	runs := max(len(ptr)-1, 0)
	if runs == 0 {
		return 0
	}
	if ptr[0] < 0 || ptr[runs] > int64(n) {
		panic("kernel: " + name + " run pointer out of range")
	}
	for i := 0; i < runs; i++ {
		if ptr[i] > ptr[i+1] {
			panic("kernel: " + name + " run pointers decrease")
		}
	}
	if r > len(dst) || rows == nil && runs*r > len(dst) || rows != nil && len(rows) < runs {
		panic("kernel: " + name + " destination row out of range")
	}
	return runs
}

// runRow returns run i's destination row of dst: row rows[i] with a row
// map, row i without one. It is sliced with len(dst) as its capacity
// bound, so a row past the end panics even where the capacity would hold
// it.
func runRow(dst []float64, r int, rows []int32, i int) []float64 {
	o := i * r
	if rows != nil {
		o = int(rows[i]) * r
	}
	return dst[o : o+r : len(dst)]
}

// streamRunsGeneric is StreamRuns' portable body, and the reference for
// its AVX2 body: one streamRun per run, into the run's destination row.
func streamRunsGeneric(dst []float64, r int, ptr []int64, rows []int32, vals []float64, idx [][]int32, facs [][]float64) {
	for i := 0; i+1 < len(ptr); i++ {
		streamRun(runRow(dst, r, rows, i), int(ptr[i]), int(ptr[i+1]), vals, idx, facs)
	}
}

// streamRun sets d[j] = 0 + Σ_e vals[e] · Π_k facs[k][idx[k][e]·R + j] over
// the entries e in [a, b), with R = len(d): one run of nonzeros, taken in
// order, each contributing its value times one row per factor. facs[k] is
// a row-major factor matrix with row stride R, and idx[k] holds the
// entries' row indices into it.
//
// It is bit-identical to clearing d and calling HadamardAccum once per
// entry: every term associates ((v·a)·b)… left to right and is then added
// once, in entry order, to a sum that starts at +0. What changes is the
// loop nest. The columns are taken in blocks of 8, then 4, then one at a
// time; each block keeps its accumulators and running products in local
// variables across the whole run, so d is stored once per block and never
// loaded. One body serves every factor count.
func streamRun(d []float64, a, b int, vals []float64, idx [][]int32, facs [][]float64) {
	r := len(d)
	k := len(facs)
	j := 0
	for ; j+8 <= r; j += 8 {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for e := a; e < b; e++ {
			v := vals[e]
			f := (*[8]float64)(facs[0][int(idx[0][e])*r+j:])
			p0, p1, p2, p3 := float64(v*f[0]), float64(v*f[1]), float64(v*f[2]), float64(v*f[3])
			p4, p5, p6, p7 := float64(v*f[4]), float64(v*f[5]), float64(v*f[6]), float64(v*f[7])
			for m := 1; m < k; m++ {
				f = (*[8]float64)(facs[m][int(idx[m][e])*r+j:])
				p0, p1, p2, p3 = float64(p0*f[0]), float64(p1*f[1]), float64(p2*f[2]), float64(p3*f[3])
				p4, p5, p6, p7 = float64(p4*f[4]), float64(p5*f[5]), float64(p6*f[6]), float64(p7*f[7])
			}
			a0, a1, a2, a3 = a0+p0, a1+p1, a2+p2, a3+p3
			a4, a5, a6, a7 = a4+p4, a5+p5, a6+p6, a7+p7
		}
		o := (*[8]float64)(d[j:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	for ; j+4 <= r; j += 4 {
		var a0, a1, a2, a3 float64
		for e := a; e < b; e++ {
			v := vals[e]
			f := (*[4]float64)(facs[0][int(idx[0][e])*r+j:])
			p0, p1, p2, p3 := float64(v*f[0]), float64(v*f[1]), float64(v*f[2]), float64(v*f[3])
			for m := 1; m < k; m++ {
				f = (*[4]float64)(facs[m][int(idx[m][e])*r+j:])
				p0, p1, p2, p3 = float64(p0*f[0]), float64(p1*f[1]), float64(p2*f[2]), float64(p3*f[3])
			}
			a0, a1, a2, a3 = a0+p0, a1+p1, a2+p2, a3+p3
		}
		o := (*[4]float64)(d[j:])
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
	}
	for ; j < r; j++ {
		var s float64
		for e := a; e < b; e++ {
			p := float64(vals[e] * facs[0][int(idx[0][e])*r+j])
			for m := 1; m < k; m++ {
				p = float64(p * facs[m][int(idx[m][e])*r+j])
			}
			s += p
		}
		d[j] = s
	}
}

// gatherRunsGeneric is GatherRuns' portable body, and the reference for
// its AVX2 body: one gatherRun per run, into the run's destination row.
func gatherRunsGeneric(dst []float64, r int, ptr []int64, rows []int32, base []float64, elems []int32, idx [][]int32, facs [][]float64) {
	for i := 0; i+1 < len(ptr); i++ {
		gatherRun(runRow(dst, r, rows, i), base, elems[ptr[i]:ptr[i+1]], idx, facs)
	}
}

// gatherRun sets
// d[j] = 0 + Σ_e base[elems[e]·R + j] · Π_k facs[k][idx[k][elems[e]]·R + j]
// with R = len(d): one element's run of reduction entries, taken in order
// e, each contributing its parent element's row of base times one row per
// factor. base and every facs[k] are row-major with row stride R, and
// idx[k] holds the parent elements' row indices into facs[k]. facs may be
// empty, which sums the parent rows.
//
// It clears d, then at zero to four factors runs one entry at a time: the
// parent's row times the factor rows is added into d by the fused chain of
// that many rows (AddInto, FMAInto, accumVec2–4), with each entry's parent
// and row offsets computed once. Every row is sliced with its array's
// length as the capacity bound. Above four factors gatherRunBlocked runs.
// Both associate every term ((b·a)·c)… left to right and add it once, in
// entry order, to a sum that starts at +0, so they are bit-identical to
// each other and to the unfused chain into a cleared row.
func gatherRun(d, base []float64, elems []int32, idx [][]int32, facs [][]float64) {
	clear(d)
	if len(facs) > 4 {
		gatherRunBlocked(d, base, elems, idx, facs)
		return
	}
	r := len(d)
	row := func(m int, pe int32) []float64 {
		o := int(idx[m][pe]) * r
		return facs[m][o : o+r : len(facs[m])]
	}
	for _, pe := range elems {
		o := int(pe) * r
		b := base[o : o+r : len(base)]
		switch len(facs) {
		case 0:
			AddInto(d, b)
		case 1:
			FMAInto(d, b, row(0, pe))
		case 2:
			accumVec2(d, b, row(0, pe), row(1, pe))
		case 3:
			accumVec3(d, b, row(0, pe), row(1, pe), row(2, pe))
		case 4:
			accumVec4(d, b, row(0, pe), row(1, pe), row(2, pe), row(3, pe))
		}
	}
}

// gatherRunBlocked is gatherRun's body above four factors, adding the run
// into d. Its loop nest is streamRun's: per block of 8, then 4, then one
// column, the accumulators and running products stay in local variables
// across the whole run. (At four factors and fewer the per-entry chain
// measured faster at every R from 8 to 32: each block reloads every
// entry's parent and row indices.)
func gatherRunBlocked(dst, base []float64, elems []int32, idx [][]int32, facs [][]float64) {
	r := len(dst)
	j := 0
	for ; j+8 <= r; j += 8 {
		d := (*[8]float64)(dst[j:])
		a0, a1, a2, a3, a4, a5, a6, a7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		for _, pe := range elems {
			b := (*[8]float64)(base[int(pe)*r+j:])
			p0, p1, p2, p3, p4, p5, p6, p7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
			for m, fac := range facs {
				f := (*[8]float64)(fac[int(idx[m][pe])*r+j:])
				p0, p1, p2, p3 = float64(p0*f[0]), float64(p1*f[1]), float64(p2*f[2]), float64(p3*f[3])
				p4, p5, p6, p7 = float64(p4*f[4]), float64(p5*f[5]), float64(p6*f[6]), float64(p7*f[7])
			}
			a0, a1, a2, a3 = a0+p0, a1+p1, a2+p2, a3+p3
			a4, a5, a6, a7 = a4+p4, a5+p5, a6+p6, a7+p7
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	for ; j+4 <= r; j += 4 {
		d := (*[4]float64)(dst[j:])
		a0, a1, a2, a3 := d[0], d[1], d[2], d[3]
		for _, pe := range elems {
			b := (*[4]float64)(base[int(pe)*r+j:])
			p0, p1, p2, p3 := b[0], b[1], b[2], b[3]
			for m, fac := range facs {
				f := (*[4]float64)(fac[int(idx[m][pe])*r+j:])
				p0, p1, p2, p3 = float64(p0*f[0]), float64(p1*f[1]), float64(p2*f[2]), float64(p3*f[3])
			}
			a0, a1, a2, a3 = a0+p0, a1+p1, a2+p2, a3+p3
		}
		d[0], d[1], d[2], d[3] = a0, a1, a2, a3
	}
	for ; j < r; j++ {
		a := dst[j]
		for _, pe := range elems {
			p := base[int(pe)*r+j]
			for m, fac := range facs {
				p = float64(p * fac[int(idx[m][pe])*r+j])
			}
			a += p
		}
		dst[j] = a
	}
}

// checkStream panics unless StreamRuns has at least one factor, one index
// array per factor, and in each an entry for every entry its runs cover
// (below end, the last run pointer). Both bodies run behind it, so they
// reject the same inputs.
func checkStream(end int64, idx [][]int32, facs [][]float64) {
	if len(facs) < 1 || len(idx) < len(facs) {
		panic("kernel: StreamRuns needs one index array per factor")
	}
	for k := range facs {
		if int64(len(idx[k])) < end {
			panic("kernel: StreamRuns index array shorter than its runs")
		}
	}
}

// checkGather panics unless GatherRuns has one index array per factor,
// each with an entry for every row of base (R = r ≥ 1). The AVX2 body
// relies on it to load idx[k][pe] for any pe whose parent row lies in
// base; both bodies run behind it, so they reject the same inputs.
func checkGather(r int, base []float64, idx [][]int32, facs [][]float64) {
	if len(idx) < len(facs) {
		panic("kernel: GatherRuns needs one index array per factor")
	}
	for k := range facs {
		if len(idx[k]) < len(base)/r {
			panic("kernel: GatherRuns index array shorter than base's rows")
		}
	}
}

// scatterAccumGeneric is ScatterAccum's portable body, and the reference
// for its AVX2 body. It writes
// out[target[e]·R + j] += vals[e] · Π_k facs[k][idx[k][e]·R + j]
// for each nonzero e in order: one HadamardAccum per nonzero, on the
// nonzero's target row of out and its factor rows. out and every facs[k]
// are row-major with row stride R = r, target holds the nonzeros' output
// rows and idx[k] their row indices into facs[k]. facs may be empty, which
// adds each value to its target row.
//
// HadamardAccum's dispatch on the row count is taken once per call, not
// per nonzero, so at one to four factors the rows go straight to the fused
// body as slices, with no row-slice array in between (scatterAccumBlocked
// takes more factors); the bodies and so the bits are HadamardAccum's.
// Every row is sliced with len(out) or len(facs[k]) as its capacity bound,
// so a row past the length panics even where the capacity would hold it.
func scatterAccumGeneric(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) {
	if len(facs) > 4 {
		scatterAccumBlocked(out, r, target, vals, idx, facs)
		return
	}
	row := func(k, e int) []float64 {
		o := int(idx[k][e]) * r
		return facs[k][o : o+r : len(facs[k])]
	}
	for e, v := range vals {
		t := int(target[e]) * r
		dst := out[t : t+r : len(out)]
		switch len(facs) {
		case 0:
			for j := range dst {
				dst[j] += v
			}
		case 1:
			Axpy(dst, v, row(0, e))
		case 2:
			accum2(dst, v, row(0, e), row(1, e))
		case 3:
			accum3(dst, v, row(0, e), row(1, e), row(2, e))
		case 4:
			accum4(dst, v, row(0, e), row(1, e), row(2, e), row(3, e))
		}
	}
}

// scatterRows is the number of factors whose row slices
// scatterAccumBlocked gathers into a stack array; more (tensor order above
// scatterRows+1) take a heap slice per call.
const scatterRows = 16

// scatterAccumBlocked is scatterAccumGeneric's body above four factors:
// per nonzero it points a row slice per factor at the factor rows and runs
// hadamardBlocked on them.
func scatterAccumBlocked(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) {
	var buf [scatterRows][]float64
	var rows [][]float64
	if len(facs) <= len(buf) {
		rows = buf[:len(facs)]
	} else {
		rows = make([][]float64, len(facs))
	}
	for e, v := range vals {
		for k, fac := range facs {
			o := int(idx[k][e]) * r
			rows[k] = fac[o : o+r : len(fac)]
		}
		t := int(target[e]) * r
		hadamardBlocked(out[t:t+r:len(out)], v, rows)
	}
}

// checkScatter panics unless ScatterAccum has R ≥ 0, one index array per
// factor, and a target and a row index in each factor for every value. It
// also rejects R past len(out) when there is a nonzero, whose target row
// could then not fit; that bounds R·8 for the AVX2 body's row offsets.
// Both bodies run behind it, so they reject the same inputs.
func checkScatter(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) {
	if r < 0 || r > len(out) && len(vals) > 0 {
		panic("kernel: ScatterAccum target row out of range")
	}
	if len(target) < len(vals) {
		panic("kernel: ScatterAccum target array shorter than vals")
	}
	if len(idx) < len(facs) {
		panic("kernel: ScatterAccum needs one index array per factor")
	}
	for k := range facs {
		if len(idx[k]) < len(vals) {
			panic("kernel: ScatterAccum index array shorter than vals")
		}
	}
}
