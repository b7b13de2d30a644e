package kernel

// hasAVX2 selects the AVX2 bodies of StreamRuns, GatherRuns and
// ScatterAccum. It is set once at package initialization from the CPU and
// OS feature bits; tests clear it to run the portable bodies.
var hasAVX2 bool

// init sets hasAVX2. It is an init function, not an initializer
// expression: an initializer makes the compiler emit a package init
// function ahead of the package's other code, which moves every kernel by
// 32 bytes. The choice was made when dist-order5 ran the four-row Go body
// (accum4), which measured about 5 % slower at that offset. Both benchmark
// workloads now run assembly bodies (dist-order5 scatterAccumAVX2,
// memo-zipf4 streamRunsAVX2 and gatherRunsAVX2), and what the init
// keeps is the layout those were measured at: moving code by 32 bytes has
// shifted either workload's decompose time by 5–10 % before.
func init() { hasAVX2 = detectAVX2() }

// detectAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches: CPUID.1:ECX OSXSAVE and AVX,
// XCR0 bits 1–2 (XMM and YMM state), and CPUID.(7,0):EBX AVX2.
func detectAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// streamRunsAVX2 is StreamRuns' AVX2 body (stream_amd64.s). It returns
// false, possibly after setting the rows of earlier runs and some column
// blocks of the current one, when a mapped destination row lies past the
// end of dst or a row index puts a factor row past the end of its factor.
// The caller has checked the chunk through checkRuns and checkStream, and
// R ≥ 1.
//
//go:noescape
func streamRunsAVX2(dst []float64, r int, ptr []int64, rows []int32, vals []float64, idx [][]int32, facs [][]float64) bool

// StreamRuns sets, for each run i of one scheduled chunk, the destination
// row of dst (row stride R = r; row rows[i] with a row map, row i without
// one) to
// 0 + Σ_e vals[e] · Π_k facs[k][idx[k][e]·R + j]
// over the run's entries e in [ptr[i], ptr[i+1]), taken in order; see
// streamRun for the contract. vals and every idx[k] are the whole entry
// arrays that ptr points into. On a CPU with AVX2 it runs an assembly body
// that is bit-identical to the portable one: every lane multiplies and
// adds as the portable body's scalars do, in the same order, with no fused
// multiply-add. It panics on what checkRuns and checkStream reject, on a
// mapped row outside dst and on a row index outside its factor, and never
// reads or writes past one.
func StreamRuns(dst []float64, r int, ptr []int64, rows []int32, vals []float64, idx [][]int32, facs [][]float64) {
	runs := checkRuns("StreamRuns", dst, r, ptr, rows, len(vals))
	if runs == 0 || r == 0 {
		return
	}
	checkStream(ptr[runs], idx, facs)
	if !hasAVX2 {
		streamRunsGeneric(dst, r, ptr, rows, vals, idx, facs)
		return
	}
	if !streamRunsAVX2(dst, r, ptr, rows, vals, idx, facs) {
		panic("kernel: StreamRuns row index out of range")
	}
}

// gatherRunsAVX2 is GatherRuns' AVX2 body (stream_amd64.s). It returns
// false, possibly after setting the rows of earlier runs and some column
// blocks of the current one, when a mapped destination row lies past the
// end of dst, a parent row past the end of base, or a row index puts a
// factor row past the end of its factor. The caller has checked the chunk
// through checkRuns and checkGather, and R ≥ 1.
//
//go:noescape
func gatherRunsAVX2(dst []float64, r int, ptr []int64, rows []int32, base []float64, elems []int32, idx [][]int32, facs [][]float64) bool

// GatherRuns sets, for each run i of one scheduled chunk, the destination
// row of dst (row stride R = r; row rows[i] with a row map, row i without
// one) to
// 0 + Σ_e base[elems[e]·R + j] · Π_k facs[k][idx[k][elems[e]]·R + j]
// over the run's entries e in [ptr[i], ptr[i+1]), taken in order; see
// gatherRun for the contract. elems is the whole entry array that ptr
// points into. On a CPU with AVX2 it runs an assembly body that is
// bit-identical to the portable one. It panics on what checkRuns and
// checkGather reject, on a mapped row outside dst and on a parent or row
// index outside its array, and never reads or writes past one.
func GatherRuns(dst []float64, r int, ptr []int64, rows []int32, base []float64, elems []int32, idx [][]int32, facs [][]float64) {
	runs := checkRuns("GatherRuns", dst, r, ptr, rows, len(elems))
	if runs == 0 || r == 0 {
		return
	}
	checkGather(r, base, idx, facs)
	if !hasAVX2 {
		gatherRunsGeneric(dst, r, ptr, rows, base, elems, idx, facs)
		return
	}
	if !gatherRunsAVX2(dst, r, ptr, rows, base, elems, idx, facs) {
		panic("kernel: GatherRuns row index out of range")
	}
}

// scatterAccumAVX2 is ScatterAccum's AVX2 body (stream_amd64.s). It returns
// false, possibly after updating the rows of earlier nonzeros and some
// column blocks of the current one, when a target row lies past the end of
// out or a row index puts a factor row past the end of its factor. The
// caller has checked the arrays through checkScatter.
//
//go:noescape
func scatterAccumAVX2(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) bool

// ScatterAccum writes
// out[target[e]·R + j] += vals[e] · Π_k facs[k][idx[k][e]·R + j]
// for each nonzero e in order, with R = r; see scatterAccumGeneric for the
// contract. On a CPU with AVX2 it runs an assembly body that is
// bit-identical to the portable one. It panics on R < 0, on a target or
// index array shorter than vals, on fewer index arrays than factors, and on
// a target or row index outside its array, and never reads past one.
func ScatterAccum(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) {
	checkScatter(out, r, target, vals, idx, facs)
	if !hasAVX2 {
		scatterAccumGeneric(out, r, target, vals, idx, facs)
		return
	}
	if !scatterAccumAVX2(out, r, target, vals, idx, facs) {
		panic("kernel: ScatterAccum row index out of range")
	}
}
