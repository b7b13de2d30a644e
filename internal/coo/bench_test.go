package coo

import (
	"fmt"
	"testing"

	"adatm/internal/dense"
	"adatm/internal/tensor"
)

// BenchmarkCOOMTTKRP times one ALS-pattern sweep (an MTTKRP into every
// mode) of the single-worker COO engine at R = 16 over tensor orders 3–8,
// i.e. 2–7 factor rows per nonzero. At one worker the model resolves every
// mode of these tensors to the privatized output, so each MTTKRP is one
// kernel.ScatterAccum call over every nonzero: on a CPU with AVX2 its
// assembly body at every order; otherwise the fused two- to four-row
// bodies at orders 3–5 and the blocked path at orders 6–8. Run it on one
// core:
//
//	go test -run '^$' -bench COOMTTKRP -cpu 1 ./internal/coo/
func BenchmarkCOOMTTKRP(b *testing.B) {
	const r = 16
	for order := 3; order <= 8; order++ {
		x := tensor.RandomClustered(order, 2000, 20000, 0.5, int64(order))
		fs := randomFactors(x, r, int64(order))
		outs := make([]*dense.Matrix, order)
		for m := range outs {
			outs[m] = dense.New(x.Dims[m], r)
		}
		e := New(x, 1)
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for m := range outs {
					if err := e.MTTKRP(m, fs, outs[m]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
