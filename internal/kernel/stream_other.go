//go:build !amd64

package kernel

// hasAVX2 is false off amd64: only the portable body exists.
var hasAVX2 = false

// StreamRuns sets, for each run i of one scheduled chunk, the destination
// row of dst (row stride R = r; row rows[i] with a row map, row i without
// one) to 0 + Σ_e vals[e] · Π_k facs[k][idx[k][e]·R + j] over the run's
// entries e in [ptr[i], ptr[i+1]); see streamRun for the contract.
func StreamRuns(dst []float64, r int, ptr []int64, rows []int32, vals []float64, idx [][]int32, facs [][]float64) {
	runs := checkRuns("StreamRuns", dst, r, ptr, rows, len(vals))
	if runs == 0 || r == 0 {
		return
	}
	checkStream(ptr[runs], idx, facs)
	streamRunsGeneric(dst, r, ptr, rows, vals, idx, facs)
}

// GatherRuns sets, for each run i of one scheduled chunk, the destination
// row of dst (row stride R = r; row rows[i] with a row map, row i without
// one) to
// 0 + Σ_e base[elems[e]·R + j] · Π_k facs[k][idx[k][elems[e]]·R + j]
// over the run's entries e in [ptr[i], ptr[i+1]); see gatherRun for the
// contract.
func GatherRuns(dst []float64, r int, ptr []int64, rows []int32, base []float64, elems []int32, idx [][]int32, facs [][]float64) {
	runs := checkRuns("GatherRuns", dst, r, ptr, rows, len(elems))
	if runs == 0 || r == 0 {
		return
	}
	checkGather(r, base, idx, facs)
	gatherRunsGeneric(dst, r, ptr, rows, base, elems, idx, facs)
}

// ScatterAccum writes
// out[target[e]·R + j] += vals[e] · Π_k facs[k][idx[k][e]·R + j]
// for each nonzero e in order, with R = r; see scatterAccumGeneric for the
// contract.
func ScatterAccum(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) {
	checkScatter(out, r, target, vals, idx, facs)
	scatterAccumGeneric(out, r, target, vals, idx, facs)
}
