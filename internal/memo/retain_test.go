package memo

import (
	"math"
	"testing"

	"adatm/internal/dense"
	"adatm/internal/ref"
	"adatm/internal/tensor"
)

func TestRetainBuffersCorrectness(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 500, 0.8, 421)
	fs := randomFactors(x, 6, 422)
	e, err := NewWithConfig(x, Balanced(4), Config{Workers: 2, RetainBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 3; iter++ {
		for mode := 0; mode < 4; mode++ {
			out := dense.New(x.Dims[mode], 6)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Fatalf("iter %d mode %d: diff %g (stale retained buffer?)", iter, mode, d)
			}
			e.FactorUpdated(mode)
		}
	}
}

func TestRetainBuffersNoReallocation(t *testing.T) {
	x := tensor.RandomClustered(4, 10, 400, 0.7, 423)
	fs := randomFactors(x, 4, 424)
	e, err := NewWithConfig(x, Balanced(4), Config{Workers: 1, RetainBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		for mode := 0; mode < 4; mode++ {
			out := dense.New(x.Dims[mode], 4)
			e.MTTKRP(mode, fs, out)
			e.FactorUpdated(mode)
		}
	}
	sweep()
	peakAfterFirst := e.Stats().PeakValueBytes
	// Buffers must be identical across sweeps (pointer-stable).
	bufs := make(map[*node]*float64)
	for _, nd := range e.all {
		if nd.buf != nil {
			bufs[nd] = &nd.buf[0]
		}
	}
	sweep()
	for _, nd := range e.all {
		if p, ok := bufs[nd]; ok && &nd.buf[0] != p {
			t.Fatal("retained buffer was reallocated")
		}
	}
	if got := e.Stats().PeakValueBytes; got != peakAfterFirst {
		t.Errorf("peak grew across sweeps with retained buffers: %d -> %d", peakAfterFirst, got)
	}
}

func TestRetainBuffersRankChange(t *testing.T) {
	x := tensor.RandomClustered(3, 10, 300, 0.6, 425)
	e, err := NewWithConfig(x, Balanced(3), Config{Workers: 1, RetainBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{4, 8, 2} { // grow then shrink
		fs := randomFactors(x, r, int64(r))
		for mode := 0; mode < 3; mode++ {
			out := dense.New(x.Dims[mode], r)
			e.MTTKRP(mode, fs, out)
			want := ref.MTTKRPSparse(x, mode, fs)
			if d := out.MaxAbsDiff(want); d > 1e-8 {
				t.Fatalf("rank %d mode %d: diff %g", r, mode, d)
			}
			e.FactorUpdated(mode)
		}
	}
	if e.Stats().PeakValueBytes <= 0 {
		t.Error("no peak accounting")
	}
}

// The ablation: steady-state sweeps must allocate (almost) nothing with
// retained buffers, and one value matrix per node without.
func BenchmarkRetainBuffersAblation(b *testing.B) {
	x := tensor.RandomClustered(4, 4096, 100000, 0.8, 426)
	fs := randomFactors(x, 16, 427)
	for _, retain := range []bool{false, true} {
		name := "alloc-per-iter"
		if retain {
			name = "retain-buffers"
		}
		e, err := NewWithConfig(x, Balanced(4), Config{RetainBuffers: retain})
		if err != nil {
			b.Fatal(err)
		}
		out := dense.New(x.Dims[0], 16)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for mode := 0; mode < 4; mode++ {
					mm := &dense.Matrix{Rows: x.Dims[mode], Cols: 16, Data: out.Data[:x.Dims[mode]*16]}
					e.MTTKRP(mode, fs, mm)
					e.FactorUpdated(mode)
				}
			}
		})
	}
}

// TestRetainBuffersNaNRebuild fills every retained node buffer and every
// output with NaN before a rebuild, and requires the retained engine to
// give the same bits as a fresh one: the kernels set each element's row
// rather than add into it, so no row needs clearing first. It covers
// streamed root children and gathered leaves (2group@2, streamed), and
// unstreamed root children with gathered deeper nodes (balanced, order 5).
func TestRetainBuffersNaNRebuild(t *testing.T) {
	for _, c := range []struct {
		order  int
		strat  *Strategy
		stream bool
	}{{4, TwoGroup(4, 2), true}, {5, Balanced(5), false}} {
		x := tensor.RandomClustered(c.order, 12, 600, 0.8, 431)
		fs := randomFactors(x, 17, 432)
		cfg := Config{Workers: 2, RetainBuffers: true, StreamRoot: c.stream}
		sweep := func(e *Engine, poison bool) [][]float64 {
			var outs [][]float64
			for mode := 0; mode < c.order; mode++ {
				out := dense.New(x.Dims[mode], 17)
				if poison {
					out.Fill(math.NaN())
				}
				if err := e.MTTKRP(mode, fs, out); err != nil {
					t.Fatal(err)
				}
				outs = append(outs, out.Data)
				e.FactorUpdated(mode)
			}
			return outs
		}
		retained, err := NewWithConfig(x, c.strat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sweep(retained, false)
		poisoned := 0
		for _, nd := range retained.all {
			for i := range nd.buf {
				nd.buf[i] = math.NaN()
			}
			poisoned += len(nd.buf)
		}
		if poisoned == 0 {
			t.Fatalf("%v: no retained buffer to poison", c.strat)
		}
		retained.invalidateAll()
		got := sweep(retained, true)
		fresh, err := NewWithConfig(x, c.strat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := sweep(fresh, false)
		for mode := range want {
			for j := range want[mode] {
				if math.Float64bits(got[mode][j]) != math.Float64bits(want[mode][j]) {
					t.Fatalf("%v mode %d: [%d] = %v after a NaN-filled rebuild, fresh engine gives %v",
						c.strat, mode, j, got[mode][j], want[mode][j])
				}
			}
		}
	}
}
