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

// streamBench is one first-level contraction's input: nnz nonzeros in
// reduction groups of one to three (a Zipf order-4 tensor's children of the
// root average about 1.15 nonzeros per group), k factors of 1024 rows at
// rank r, and random row indices.
type streamBench struct {
	dst, vals []float64
	ptr       []int64
	idx       [][]int32
	facs      [][]float64
}

func newStreamBench(r, k, nnz int) *streamBench {
	rng := rand.New(rand.NewSource(int64(10*k + r)))
	const rows = 1024
	sb := &streamBench{vals: randVec(nnz, rng), idx: make([][]int32, k), facs: make([][]float64, k)}
	for m := range sb.facs {
		sb.facs[m] = randVec(rows*r, rng)
		sb.idx[m] = make([]int32, nnz)
		for e := range sb.idx[m] {
			sb.idx[m][e] = int32(rng.Intn(rows))
		}
	}
	sizes := []int{1, 1, 1, 1, 1, 2, 1, 3}
	for e, g := 0, 0; e < nnz; g++ {
		sb.ptr = append(sb.ptr, int64(e))
		e = min(nnz, e+sizes[g%len(sizes)])
	}
	sb.ptr = append(sb.ptr, int64(nnz))
	sb.dst = make([]float64, (len(sb.ptr)-1)*r)
	return sb
}

// BenchmarkKernelStreamAccum compares the streamed kernel as dispatched
// over the whole contraction in one call (streamed: the AVX2 body on a CPU
// with AVX2), its portable body, the dispatched kernel called once per run
// with a one-run pointer pair (per-run: the memo engine's call pattern
// before it called the kernel once per chunk), and one HadamardAccum call
// per nonzero into a cleared row over the same arrays (the factor rows
// gathered through the indices), at R = 16 and one to three factors: the
// memo engine's first-level contraction before and after streaming. Run
// with -cpu 1.
func BenchmarkKernelStreamAccum(b *testing.B) {
	const r, nnz = 16, 1 << 14
	for k := 1; k <= 3; k++ {
		sb := newStreamBench(r, k, nnz)
		for _, body := range []struct {
			name string
			fn   func()
		}{
			{"streamed", func() { StreamRuns(sb.dst, r, sb.ptr, nil, sb.vals, sb.idx, sb.facs) }},
			{"portable", func() { streamRunsGeneric(sb.dst, r, sb.ptr, nil, sb.vals, sb.idx, sb.facs) }},
			{"per-run", func() {
				for g := 0; g+1 < len(sb.ptr); g++ {
					StreamRuns(sb.dst[g*r:(g+1)*r], r, sb.ptr[g:g+2], nil, sb.vals, sb.idx, sb.facs)
				}
			}},
		} {
			b.Run(fmt.Sprintf("r%d/k%d/%s", r, k, body.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					body.fn()
				}
			})
		}
		b.Run(fmt.Sprintf("r%d/k%d/per-nonzero", r, k), func(b *testing.B) {
			b.ReportAllocs()
			rows := make([][]float64, k)
			for i := 0; i < b.N; i++ {
				for g := 0; g+1 < len(sb.ptr); g++ {
					out := sb.dst[g*r : (g+1)*r]
					clear(out)
					for e := sb.ptr[g]; e < sb.ptr[g+1]; e++ {
						for m := range rows {
							o := int(sb.idx[m][e]) * r
							rows[m] = sb.facs[m][o : o+r]
						}
						HadamardAccum(out, sb.vals[e], rows)
					}
				}
			}
		})
	}
}

// gatherBench is one leaf contraction's input at memo-zipf4's leaf shape:
// 16.7k parent rows of rank r, each reduced into one leaf element, in runs
// of 8 to 24 entries (16 on average), k factors of 1024 rows, and random
// row indices. elems lists the parent elements in order (a leaf that reads
// its parent in sequence) or shuffled (one that gathers it).
type gatherBench struct {
	dst, base []float64
	ptr       []int64
	elems     []int32
	idx       [][]int32
	facs      [][]float64
}

func newGatherBench(r, k int, shuffled bool) *gatherBench {
	rng := rand.New(rand.NewSource(int64(10*k + r)))
	const parents, rows = 16700, 1024
	gb := &gatherBench{base: randVec(parents*r, rng), elems: make([]int32, parents),
		idx: make([][]int32, k), facs: make([][]float64, k)}
	for e := range gb.elems {
		gb.elems[e] = int32(e)
	}
	if shuffled {
		rng.Shuffle(parents, func(a, b int) { gb.elems[a], gb.elems[b] = gb.elems[b], gb.elems[a] })
	}
	for m := range gb.facs {
		gb.facs[m] = randVec(rows*r, rng)
		gb.idx[m] = make([]int32, parents)
		for pe := range gb.idx[m] {
			gb.idx[m][pe] = int32(rng.Intn(rows))
		}
	}
	for e := 0; e < parents; e = min(parents, e+8+rng.Intn(17)) {
		gb.ptr = append(gb.ptr, int64(e))
	}
	gb.ptr = append(gb.ptr, parents)
	gb.dst = make([]float64, (len(gb.ptr)-1)*r)
	return gb
}

// perEntryAccum is the loop the gathered kernel replaced, kept as the
// benchmark's reference: per entry, point rows at the gathered factor
// rows, then run one fused multiply-add chain over the parent's row
// (FMAInto at one factor, accumVec2 and accumVec3 at two and three).
func perEntryAccum(dst, base []float64, elems []int32, idx [][]int32, facs, rows [][]float64) {
	r := len(dst)
	for _, pe := range elems {
		for m := range rows {
			o := int(idx[m][pe]) * r
			rows[m] = facs[m][o : o+r]
		}
		b := base[int(pe)*r:][:r]
		switch len(rows) {
		case 1:
			FMAInto(dst, b, rows[0])
		case 2:
			accumVec2(dst, b, rows[0], rows[1])
		case 3:
			accumVec3(dst, b, rows[0], rows[1], rows[2])
		}
	}
}

// BenchmarkKernelGatherAccum compares the gathered kernel as dispatched
// over the whole contraction in one call (gathered: the AVX2 body on a CPU
// with AVX2), its portable body, the dispatched kernel called once per run
// with a one-run pointer pair (per-run: the memo engine's call pattern
// before it called the kernel once per chunk), and the per-entry loop into
// a cleared row it replaced (per-entry), over one leaf contraction of
// gatherBench's shape at R = 8, 16 and 32 and one to three factors, with
// the parent elements in order and shuffled. Run with -cpu 1.
func BenchmarkKernelGatherAccum(b *testing.B) {
	for _, order := range []string{"sorted", "shuffled"} {
		for _, r := range []int{8, 16, 32} {
			for k := 1; k <= 3; k++ {
				gb := newGatherBench(r, k, order == "shuffled")
				rows := make([][]float64, k)
				for _, body := range []struct {
					name string
					fn   func()
				}{
					{"portable", func() { gatherRunsGeneric(gb.dst, r, gb.ptr, nil, gb.base, gb.elems, gb.idx, gb.facs) }},
					{"gathered", func() { GatherRuns(gb.dst, r, gb.ptr, nil, gb.base, gb.elems, gb.idx, gb.facs) }},
					{"per-run", func() {
						for g := 0; g+1 < len(gb.ptr); g++ {
							GatherRuns(gb.dst[g*r:(g+1)*r], r, gb.ptr[g:g+2], nil, gb.base, gb.elems, gb.idx, gb.facs)
						}
					}},
					{"per-entry", func() {
						for g := 0; g+1 < len(gb.ptr); g++ {
							out := gb.dst[g*r : (g+1)*r]
							clear(out)
							perEntryAccum(out, gb.base, gb.elems[gb.ptr[g]:gb.ptr[g+1]], gb.idx, gb.facs, rows)
						}
					}},
				} {
					b.Run(fmt.Sprintf("%s/r%d/k%d/%s", order, r, k, body.name), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							body.fn()
						}
					})
				}
			}
		}
	}
}

// scatterBench is one COO chunk's input: nnz nonzeros of an order-(k+1)
// tensor, k factors of 2048 rows at rank r, and random targets and row
// indices, the last into factors of 2048 rows.
type scatterBench struct {
	out, vals []float64
	target    []int32
	idx       [][]int32
	facs      [][]float64
}

func newScatterBench(r, k, nnz int) *scatterBench {
	rng := rand.New(rand.NewSource(int64(100*k + r)))
	const rows = 2048
	sb := &scatterBench{out: make([]float64, rows*r), vals: randVec(nnz, rng),
		target: make([]int32, nnz), idx: make([][]int32, k), facs: make([][]float64, k)}
	for e := range sb.target {
		sb.target[e] = int32(rng.Intn(rows))
	}
	for m := range sb.facs {
		sb.facs[m] = randVec(rows*r, rng)
		sb.idx[m] = make([]int32, nnz)
		for e := range sb.idx[m] {
			sb.idx[m][e] = int32(rng.Intn(rows))
		}
	}
	return sb
}

// BenchmarkKernelScatterAccum compares the scattered kernel as dispatched
// (scattered: the AVX2 body on a CPU with AVX2), its portable body, and
// the per-nonzero loop the COO engine ran before it (per-nonzero), over
// one chunk of 16k nonzeros at tensor orders 3–8 (2–7 factors) and
// R = 8, 16, 17 and 32. Run with -cpu 1.
func BenchmarkKernelScatterAccum(b *testing.B) {
	const nnz = 1 << 14
	for order := 3; order <= 8; order++ {
		for _, r := range []int{8, 16, 17, 32} {
			sb := newScatterBench(r, order-1, nnz)
			rows := make([][]float64, order-1)
			for _, body := range []struct {
				name string
				fn   func(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64)
			}{
				{"scattered", ScatterAccum},
				{"portable", scatterAccumGeneric},
				{"per-nonzero", func(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) {
					perNonzeroScatter(out, r, target, vals, idx, facs, rows)
				}},
			} {
				b.Run(fmt.Sprintf("order%d/r%d/%s", order, r, body.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						body.fn(sb.out, r, sb.target, sb.vals, sb.idx, sb.facs)
					}
				})
			}
		}
	}
}
