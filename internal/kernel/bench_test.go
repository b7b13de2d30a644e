// Microbenchmarks for the shared kernel primitives, across the ranks the
// experiment grid sweeps (8, 16, 32 hit the specialized bodies; 17 and 64
// exercise the generic unrolled path). `make bench-kernels` emits these as
// BENCH_kernels.json.
package kernel

import (
	"fmt"
	"math/rand"
	"testing"
)

var benchRanks = []int{8, 16, 17, 32, 64}

func benchVecs(r int) (dst, a, b, c []float64) {
	rng := rand.New(rand.NewSource(int64(r)))
	dst, a, b, c = randVec(r, rng), randVec(r, rng), randVec(r, rng), randVec(r, rng)
	return
}

func BenchmarkKernelScale(b *testing.B) {
	for _, r := range benchRanks {
		dst, src, _, _ := benchVecs(r)
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(r) * 8)
			for i := 0; i < b.N; i++ {
				Scale(dst, src, 1.0000001)
			}
		})
	}
}

func BenchmarkKernelMulInto(b *testing.B) {
	for _, r := range benchRanks {
		dst, src, _, _ := benchVecs(r)
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(r) * 8)
			for i := 0; i < b.N; i++ {
				MulInto(dst, src)
			}
		})
	}
}

func BenchmarkKernelAddInto(b *testing.B) {
	for _, r := range benchRanks {
		dst, src, _, _ := benchVecs(r)
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(r) * 8)
			for i := 0; i < b.N; i++ {
				AddInto(dst, src)
			}
		})
	}
}

func BenchmarkKernelFMAInto(b *testing.B) {
	for _, r := range benchRanks {
		dst, x, y, _ := benchVecs(r)
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(r) * 8)
			for i := 0; i < b.N; i++ {
				FMAInto(dst, x, y)
			}
		})
	}
}

func BenchmarkKernelAxpy(b *testing.B) {
	for _, r := range benchRanks {
		dst, src, _, _ := benchVecs(r)
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(r) * 8)
			for i := 0; i < b.N; i++ {
				Axpy(dst, 1.0000001, src)
			}
		})
	}
}

// benchRows returns k random length-r factor rows.
func benchRows(r, k int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(100*r + k)))
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = randVec(r, rng)
	}
	return rows
}

// BenchmarkKernelHadamardAccum compares the fused kernel against the
// unfused Scale–MulInto–AddInto chain it replaced in the element-streaming
// engines, at one to six rows (tensor orders 2 to 7): four rows and fewer
// run the fused bodies, five and six the blocked path.
func BenchmarkKernelHadamardAccum(b *testing.B) {
	for _, r := range benchRanks {
		for k := 1; k <= 6; k++ {
			dst, _, _, _ := benchVecs(r)
			rows := benchRows(r, k)
			b.Run(fmt.Sprintf("r%d/k%d/fused", r, k), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(r) * 8 * int64(k+1))
				for i := 0; i < b.N; i++ {
					HadamardAccum(dst, 1.0000001, rows)
				}
			})
			b.Run(fmt.Sprintf("r%d/k%d/unfused", r, k), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(r) * 8 * int64(k+1))
				tmp := make([]float64, r)
				for i := 0; i < b.N; i++ {
					Scale(tmp, rows[0], 1.0000001)
					for _, row := range rows[1:] {
						MulInto(tmp, row)
					}
					AddInto(dst, tmp)
				}
			})
		}
	}
}

func BenchmarkKernelHadamardAccumVec(b *testing.B) {
	for _, r := range benchRanks {
		for k := 1; k <= 6; k++ {
			dst, base, _, _ := benchVecs(r)
			rows := benchRows(r, k)
			b.Run(fmt.Sprintf("r%d/k%d", r, k), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(r) * 8 * int64(k+1))
				for i := 0; i < b.N; i++ {
					HadamardAccumVec(dst, base, rows)
				}
			})
		}
	}
}
