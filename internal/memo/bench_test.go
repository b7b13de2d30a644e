package memo

import (
	"fmt"
	"testing"

	"adatm/internal/dense"
	"adatm/internal/tensor"
)

func benchTensor(order int) *tensor.COO {
	return tensor.RandomClustered(order, 4096, 100000, 0.8, int64(order))
}

func BenchmarkSymbolicBuild(b *testing.B) {
	for _, order := range []int{4, 6, 8} {
		x := benchTensor(order)
		for _, s := range []struct {
			name  string
			strat *Strategy
		}{{"flat", Flat(order)}, {"balanced", Balanced(order)}} {
			b.Run(fmt.Sprintf("order%d/%s", order, s.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := New(x, s.strat, 0, ""); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(x.NNZ()), "nnz")
			})
		}
	}
}

func BenchmarkNumericSweep(b *testing.B) {
	for _, order := range []int{4, 6} {
		x := benchTensor(order)
		fs := randomFactors(x, 16, 5)
		for _, s := range []struct {
			name  string
			strat *Strategy
		}{{"flat", Flat(order)}, {"balanced", Balanced(order)}} {
			e, err := New(x, s.strat, 0, "")
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("order%d/%s", order, s.name), func(b *testing.B) {
				out := dense.New(x.Dims[0], 16)
				for i := 0; i < b.N; i++ {
					for mode := 0; mode < order; mode++ {
						e.MTTKRP(mode, fs, out)
						e.FactorUpdated(mode)
					}
				}
			})
		}
	}
}

func BenchmarkSortByKeys(b *testing.B) {
	x := benchTensor(4)
	keys := [][]tensor.Index{x.Inds[0], x.Inds[1]}
	dims := []int{x.Dims[0], x.Dims[1]}
	perm := make([]int32, x.NNZ())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range perm {
			perm[j] = int32(j)
		}
		sortByKeys(perm, keys, dims)
	}
	b.ReportMetric(float64(x.NNZ()), "keys")
}

// BenchmarkMemoRootContraction times one MTTKRP per mode on a Zipf order-4
// tensor (the memo-zipf4 shape: 1024⁴, 300000 generated nonzeros, skew 0.8)
// with every factor invalidated first, so each call recomputes from the
// root: a first-level contraction that reads every nonzero, then whatever
// lies between it and the mode's leaf. The trees are 2group@2 (the one
// memo-zipf4 picks; root children are internal), 2group@1 (one leaf root
// child) and flat (every root child a leaf). Buffers are retained (as in an
// unbudgeted run), so no call allocates. The non-leaf root children are
// streamed, or gathered through redElems when the plan declines the stream
// bytes; leaves always gather, so flat's two layouts are the same.
// index-B/nnz reports the engine's symbolic storage per nonzero. Run with
// -cpu 1.
func BenchmarkMemoRootContraction(b *testing.B) {
	x := tensor.Generate(tensor.GenSpec{Dims: []int{1024, 1024, 1024, 1024}, NNZ: 300000,
		Skew: []float64{0.8, 0.8, 0.8, 0.8}, Seed: 1})
	const r = 16
	fs := randomFactors(x, r, 5)
	trees := []struct {
		name  string
		strat *Strategy
	}{{"2group@2", TwoGroup(4, 2)}, {"2group@1", TwoGroup(4, 1)}, {"flat", Flat(4)}}
	for _, tr := range trees {
		for _, stream := range []bool{true, false} {
			e, err := NewWithConfig(x, tr.strat, Config{Workers: 1, RetainBuffers: true, StreamRoot: stream})
			if err != nil {
				b.Fatal(err)
			}
			idxPerNNZ := float64(e.Stats().IndexBytes) / float64(x.NNZ())
			for mode := 0; mode < 4; mode++ {
				out := dense.New(x.Dims[mode], r)
				b.Run(fmt.Sprintf("%s/stream=%v/mode%d", tr.name, stream, mode), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for m := 0; m < 4; m++ {
							e.FactorUpdated(m)
						}
						if err := e.MTTKRP(mode, fs, out); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(idxPerNNZ, "index-B/nnz")
				})
			}
		}
	}
}
