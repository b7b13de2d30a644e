//go:build !amd64

package kernel

// hasAVX2 is false off amd64: only the portable body exists.
var hasAVX2 = false

// StreamAccum writes dst[j] += Σ_e vals[e] · Π_k facs[k][idx[k][e]·R + j]
// with R = len(dst); see streamAccumGeneric for the contract.
func StreamAccum(dst, vals []float64, idx [][]int32, facs [][]float64) {
	streamAccumGeneric(dst, vals, idx, facs)
}
