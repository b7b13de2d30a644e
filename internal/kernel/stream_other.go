//go:build !amd64

package kernel

// hasAVX2 is false off amd64: only the portable body exists.
var hasAVX2 = false

// StreamAccum writes dst[j] += Σ_e vals[e] · Π_k facs[k][idx[k][e]·R + j]
// with R = len(dst); see streamAccumGeneric for the contract.
func StreamAccum(dst, vals []float64, idx [][]int32, facs [][]float64) {
	streamAccumGeneric(dst, vals, idx, facs)
}

// GatherAccum writes
// dst[j] += Σ_e base[elems[e]·R + j] · Π_k facs[k][idx[k][elems[e]]·R + j]
// with R = len(dst); see gatherAccumGeneric for the contract.
func GatherAccum(dst, base []float64, elems []int32, idx [][]int32, facs [][]float64) {
	if len(dst) == 0 {
		return
	}
	checkGather(len(dst), base, idx, facs)
	gatherAccumGeneric(dst, base, elems, idx, facs)
}

// ScatterAccum writes
// out[target[e]·R + j] += vals[e] · Π_k facs[k][idx[k][e]·R + j]
// for each nonzero e in order, with R = r; see scatterAccumGeneric for the
// contract.
func ScatterAccum(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) {
	checkScatter(out, r, target, vals, idx, facs)
	scatterAccumGeneric(out, r, target, vals, idx, facs)
}
