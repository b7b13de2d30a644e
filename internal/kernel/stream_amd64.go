package kernel

// hasAVX2 selects the AVX2 bodies of StreamAccum, GatherAccum and
// ScatterAccum. It is set once at package initialization from the CPU and
// OS feature bits; tests clear it to run the portable bodies.
var hasAVX2 bool

// init sets hasAVX2. It is an init function, not an initializer
// expression: an initializer makes the compiler emit a package init
// function ahead of the package's other code, which moves every kernel by
// 32 bytes. The choice was made when dist-order5 ran the four-row Go body
// (accum4), which measured about 5 % slower at that offset. Both benchmark
// workloads now run assembly bodies (dist-order5 scatterAccumAVX2,
// memo-zipf4 streamAccumAVX2 and gatherAccumAVX2), and what the init
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

// streamAccumAVX2 is StreamAccum's AVX2 body (stream_amd64.s). It returns
// false, possibly after updating some column blocks of dst, when a row
// index puts a factor row past the end of its factor. The caller has
// checked len(facs) ≥ 1, len(idx) ≥ len(facs) and len(idx[k]) ≥ len(vals).
//
//go:noescape
func streamAccumAVX2(dst, vals []float64, idx [][]int32, facs [][]float64) bool

// StreamAccum writes dst[j] += Σ_e vals[e] · Π_k facs[k][idx[k][e]·R + j]
// with R = len(dst); see streamAccumGeneric for the contract. On a CPU with
// AVX2 it runs an assembly body that is bit-identical to the portable one:
// every lane multiplies and adds as the portable body's scalars do, in the
// same order, with no fused multiply-add. Like the portable body, it panics
// on an index array shorter than vals or a row index outside its factor,
// and never reads past one; it also panics on an empty facs.
func StreamAccum(dst, vals []float64, idx [][]int32, facs [][]float64) {
	if !hasAVX2 {
		streamAccumGeneric(dst, vals, idx, facs)
		return
	}
	if len(facs) < 1 || len(idx) < len(facs) {
		panic("kernel: StreamAccum needs one index array per factor")
	}
	for k := range facs {
		if len(idx[k]) < len(vals) {
			panic("kernel: StreamAccum index array shorter than vals")
		}
	}
	if !streamAccumAVX2(dst, vals, idx, facs) {
		panic("kernel: StreamAccum row index out of range")
	}
}

// gatherAccumAVX2 is GatherAccum's AVX2 body (stream_amd64.s). It returns
// false, possibly after updating some column blocks of dst, when a parent
// row lies past the end of base or a row index puts a factor row past the
// end of its factor. The caller has checked len(dst) ≥ 1 and, through
// checkGather, the index arrays.
//
//go:noescape
func gatherAccumAVX2(dst, base []float64, elems []int32, idx [][]int32, facs [][]float64) bool

// GatherAccum writes
// dst[j] += Σ_e base[elems[e]·R + j] · Π_k facs[k][idx[k][elems[e]]·R + j]
// with R = len(dst); see gatherAccumGeneric for the contract. On a CPU with
// AVX2 it runs an assembly body that is bit-identical to the portable one.
// It panics on fewer index arrays than factors, on an index array shorter
// than base's row count, and on a parent or row index outside its array,
// and never reads past one.
func GatherAccum(dst, base []float64, elems []int32, idx [][]int32, facs [][]float64) {
	if len(dst) == 0 {
		return
	}
	checkGather(len(dst), base, idx, facs)
	if !hasAVX2 {
		gatherAccumGeneric(dst, base, elems, idx, facs)
		return
	}
	if !gatherAccumAVX2(dst, base, elems, idx, facs) {
		panic("kernel: GatherAccum row index out of range")
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
