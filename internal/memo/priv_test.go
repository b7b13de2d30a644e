package memo

import (
	"math"
	"testing"

	"adatm/internal/accum"
	"adatm/internal/dense"
	"adatm/internal/kernel"
	"adatm/internal/tensor"
)

// TestPrivatizedCutRuns forces privatized accumulation on every leaf at
// Workers 3, whose three entry ranges cut leaf runs, and checks the output
// bit for bit. A row whose run lies inside one range must equal the
// scatter path's row. Every row must equal privatizedReference, which
// rebuilds the privatized schedule one entry at a time: each range's
// partial sums added into zeroed private copies, then folded in worker
// order. The trees cover a leaf gathered from a cached parent (2group@2)
// and leaves of the root (flat).
func TestPrivatizedCutRuns(t *testing.T) {
	const workers, r = 3, 17
	for _, c := range []struct {
		order int
		strat *Strategy
	}{{4, TwoGroup(4, 2)}, {3, Flat(3)}} {
		x := tensor.RandomClustered(c.order, 10, 500, 0.8, 441)
		fs := randomFactors(x, r, 442)
		engine := func(st accum.Strategy) *Engine {
			per := make([]accum.Strategy, c.order)
			for m := range per {
				per[m] = st
			}
			e, err := NewWithConfig(x, c.strat, Config{Workers: workers, Accum: accum.Config{PerMode: per}})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		priv, scat := engine(accum.Privatize), engine(accum.Scatter)
		cut := 0
		for mode := 0; mode < c.order; mode++ {
			got, want := dense.New(x.Dims[mode], r), dense.New(x.Dims[mode], r)
			if err := priv.MTTKRP(mode, fs, got); err != nil {
				t.Fatal(err)
			}
			if err := scat.MTTKRP(mode, fs, want); err != nil {
				t.Fatal(err)
			}
			leaf := priv.leaves[mode]
			ref := privatizedReference(x, leaf, fs, workers, got.Rows, r)
			lo := forWorkerStarts(leaf.parent.nelem, workers)
			for i := 0; i < leaf.nelem; i++ {
				row := int(leaf.inds[0][i])
				whole := rangeOf(lo, leaf.redPtr[i]) == rangeOf(lo, leaf.redPtr[i+1]-1)
				if !whole {
					cut++
				}
				for j := 0; j < r; j++ {
					g := math.Float64bits(got.At(row, j))
					if g != math.Float64bits(ref.At(row, j)) {
						t.Fatalf("%v mode %d row %d [%d]: %v, privatized reference gives %v", c.strat, mode, row, j, got.At(row, j), ref.At(row, j))
					}
					if whole && g != math.Float64bits(want.At(row, j)) {
						t.Fatalf("%v mode %d row %d [%d]: %v, scatter path gives %v", c.strat, mode, row, j, got.At(row, j), want.At(row, j))
					}
				}
			}
			priv.FactorUpdated(mode)
			scat.FactorUpdated(mode)
		}
		if cut == 0 {
			t.Fatalf("%v: no leaf run was cut by the %d entry ranges", c.strat, workers)
		}
	}
}

// forWorkerStarts returns the first entry of each of par.ForWorker's
// blocks over n entries: sizes n/w, the first n%w of them one larger.
func forWorkerStarts(n, w int) []int64 {
	starts := make([]int64, w)
	lo := 0
	for b := range starts {
		starts[b] = int64(lo)
		lo += n / w
		if b < n%w {
			lo++
		}
	}
	return starts
}

// rangeOf returns the block of forWorkerStarts that holds entry e.
func rangeOf(starts []int64, e int64) int {
	b := 0
	for b+1 < len(starts) && starts[b+1] <= e {
		b++
	}
	return b
}

// privatizedReference computes a privatized leaf contraction one entry at
// a time: each worker's block of entries adds every entry's term into the
// leaf element's row of a zeroed private copy (HadamardAccum for a leaf of
// the root, the parent's row times the factor rows for a deeper one), and
// the copies are folded in worker order, the first copied and the rest
// added, as accum.Pool.Reduce does.
func privatizedReference(x *tensor.COO, leaf *node, fs []*dense.Matrix, workers, rows, r int) *dense.Matrix {
	p := leaf.parent
	starts := forWorkerStarts(p.nelem, workers)
	copies := make([]*dense.Matrix, workers)
	for w := range copies {
		copies[w] = dense.New(rows, r)
	}
	frows := make([][]float64, len(leaf.delta))
	tmp := make([]float64, r)
	for i := 0; i < leaf.nelem; i++ {
		for ei := leaf.redPtr[i]; ei < leaf.redPtr[i+1]; ei++ {
			d := copies[rangeOf(starts, ei)].Row(int(leaf.inds[0][i]))
			pe := int(leaf.redElems[ei])
			for k, m := range leaf.delta {
				frows[k] = fs[m].Row(int(leaf.deltaIdx[k][pe]))
			}
			if p.parent == nil {
				kernel.HadamardAccum(d, x.Vals[pe], frows)
				continue
			}
			copy(tmp, p.vals.Row(pe))
			for _, f := range frows {
				kernel.MulInto(tmp, f)
			}
			kernel.AddInto(d, tmp)
		}
	}
	out := copies[0]
	for _, c := range copies[1:] {
		kernel.AddInto(out.Data, c.Data)
	}
	return out
}
