// Package kernel holds the shared rank-blocked MTTKRP primitives every
// sparse engine in the repository is built on: element-wise multiply /
// accumulate operations over length-R factor rows, plus fused
// Hadamard-accumulate kernels that multiply several factor rows into an
// accumulator in a single pass over the rank dimension.
//
// All primitives are allocation-free and branch once on the vector length:
// the ranks the experiment grid sweeps (R = 8, 16, 32) dispatch to
// fixed-size bodies (array-pointer conversions let the compiler drop every
// bounds check and fully unroll), and every other length runs a 4-wide
// unrolled loop with a scalar tail. Engines are expected to call these with
// rows of equal length; lengths are taken from dst and inputs must be at
// least as long.
package kernel

// Scale writes dst[j] = a * src[j].
func Scale(dst, src []float64, a float64) {
	switch len(dst) {
	case 8:
		d, s := (*[8]float64)(dst), (*[8]float64)(src)
		for j := range d {
			d[j] = a * s[j]
		}
	case 16:
		d, s := (*[16]float64)(dst), (*[16]float64)(src)
		for j := range d {
			d[j] = a * s[j]
		}
	case 32:
		d, s := (*[32]float64)(dst), (*[32]float64)(src)
		for j := range d {
			d[j] = a * s[j]
		}
	default:
		j := 0
		for ; j+4 <= len(dst); j += 4 {
			dst[j] = a * src[j]
			dst[j+1] = a * src[j+1]
			dst[j+2] = a * src[j+2]
			dst[j+3] = a * src[j+3]
		}
		for ; j < len(dst); j++ {
			dst[j] = a * src[j]
		}
	}
}

// Mul writes dst[j] = a[j] * b[j]. dst may alias a or b.
func Mul(dst, a, b []float64) {
	switch len(dst) {
	case 8:
		d, x, y := (*[8]float64)(dst), (*[8]float64)(a), (*[8]float64)(b)
		for j := range d {
			d[j] = x[j] * y[j]
		}
	case 16:
		d, x, y := (*[16]float64)(dst), (*[16]float64)(a), (*[16]float64)(b)
		for j := range d {
			d[j] = x[j] * y[j]
		}
	case 32:
		d, x, y := (*[32]float64)(dst), (*[32]float64)(a), (*[32]float64)(b)
		for j := range d {
			d[j] = x[j] * y[j]
		}
	default:
		j := 0
		for ; j+4 <= len(dst); j += 4 {
			dst[j] = a[j] * b[j]
			dst[j+1] = a[j+1] * b[j+1]
			dst[j+2] = a[j+2] * b[j+2]
			dst[j+3] = a[j+3] * b[j+3]
		}
		for ; j < len(dst); j++ {
			dst[j] = a[j] * b[j]
		}
	}
}

// MulInto writes dst[j] *= src[j].
func MulInto(dst, src []float64) {
	switch len(dst) {
	case 8:
		d, s := (*[8]float64)(dst), (*[8]float64)(src)
		for j := range d {
			d[j] *= s[j]
		}
	case 16:
		d, s := (*[16]float64)(dst), (*[16]float64)(src)
		for j := range d {
			d[j] *= s[j]
		}
	case 32:
		d, s := (*[32]float64)(dst), (*[32]float64)(src)
		for j := range d {
			d[j] *= s[j]
		}
	default:
		j := 0
		for ; j+4 <= len(dst); j += 4 {
			dst[j] *= src[j]
			dst[j+1] *= src[j+1]
			dst[j+2] *= src[j+2]
			dst[j+3] *= src[j+3]
		}
		for ; j < len(dst); j++ {
			dst[j] *= src[j]
		}
	}
}

// AddInto writes dst[j] += src[j].
func AddInto(dst, src []float64) {
	switch len(dst) {
	case 8:
		d, s := (*[8]float64)(dst), (*[8]float64)(src)
		for j := range d {
			d[j] += s[j]
		}
	case 16:
		d, s := (*[16]float64)(dst), (*[16]float64)(src)
		for j := range d {
			d[j] += s[j]
		}
	case 32:
		d, s := (*[32]float64)(dst), (*[32]float64)(src)
		for j := range d {
			d[j] += s[j]
		}
	default:
		j := 0
		for ; j+4 <= len(dst); j += 4 {
			dst[j] += src[j]
			dst[j+1] += src[j+1]
			dst[j+2] += src[j+2]
			dst[j+3] += src[j+3]
		}
		for ; j < len(dst); j++ {
			dst[j] += src[j]
		}
	}
}

// FMAInto writes dst[j] += a[j] * b[j]. The product is rounded before the
// add: the float64 conversion forbids contracting the two into one FMA
// instruction, so the result matches a multiply into a row followed by
// AddInto on every target. HadamardAccumVec relies on that.
func FMAInto(dst, a, b []float64) {
	switch len(dst) {
	case 8:
		d, x, y := (*[8]float64)(dst), (*[8]float64)(a), (*[8]float64)(b)
		for j := range d {
			d[j] += float64(x[j] * y[j])
		}
	case 16:
		d, x, y := (*[16]float64)(dst), (*[16]float64)(a), (*[16]float64)(b)
		for j := range d {
			d[j] += float64(x[j] * y[j])
		}
	case 32:
		d, x, y := (*[32]float64)(dst), (*[32]float64)(a), (*[32]float64)(b)
		for j := range d {
			d[j] += float64(x[j] * y[j])
		}
	default:
		j := 0
		for ; j+4 <= len(dst); j += 4 {
			dst[j] += float64(a[j] * b[j])
			dst[j+1] += float64(a[j+1] * b[j+1])
			dst[j+2] += float64(a[j+2] * b[j+2])
			dst[j+3] += float64(a[j+3] * b[j+3])
		}
		for ; j < len(dst); j++ {
			dst[j] += float64(a[j] * b[j])
		}
	}
}

// Axpy writes dst[j] += a * src[j], rounding the product before the add as
// FMAInto does. HadamardAccum relies on that.
func Axpy(dst []float64, a float64, src []float64) {
	switch len(dst) {
	case 8:
		d, s := (*[8]float64)(dst), (*[8]float64)(src)
		for j := range d {
			d[j] += float64(a * s[j])
		}
	case 16:
		d, s := (*[16]float64)(dst), (*[16]float64)(src)
		for j := range d {
			d[j] += float64(a * s[j])
		}
	case 32:
		d, s := (*[32]float64)(dst), (*[32]float64)(src)
		for j := range d {
			d[j] += float64(a * s[j])
		}
	default:
		j := 0
		for ; j+4 <= len(dst); j += 4 {
			dst[j] += float64(a * src[j])
			dst[j+1] += float64(a * src[j+1])
			dst[j+2] += float64(a * src[j+2])
			dst[j+3] += float64(a * src[j+3])
		}
		for ; j < len(dst); j++ {
			dst[j] += float64(a * src[j])
		}
	}
}
