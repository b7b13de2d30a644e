package coo

import (
	"fmt"
	"testing"

	"adatm/internal/dense"
	"adatm/internal/tensor"
)

// BenchmarkCOOMTTKRP times one ALS-pattern sweep (an MTTKRP into every
// mode) of the single-worker COO engine at R = 16 over tensor orders 3–8,
// i.e. 2–7 factor rows per nonzero: orders 3–5 run the fused kernel bodies
// and orders 6–8 the blocked path. Run it on one core:
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
