package cpd

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"adatm/internal/coo"
	"adatm/internal/tensor"
)

// resultHash folds the float64 bits of λ, every factor entry and the fit
// into one FNV-64a value, so a single comparison pins a run bit for bit.
func resultHash(res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range res.Lambda {
		put(v)
	}
	for _, f := range res.Factors {
		for _, v := range f.Data {
			put(v)
		}
	}
	put(res.Fit)
	return h.Sum64()
}

// TestRunSingleNodePin pins the single-node loop's numerics: fixed runs at
// Workers=1 (dense.Gram's partial sums depend on the worker count) must hash
// to the values the loop produced before the row-exchange seam existed.
func TestRunSingleNodePin(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 900, 0.6, 811)
	cases := []struct {
		name string
		opt  Options
		want uint64
	}{
		{"plain", Options{}, 0x1d35f170fdffa6c4},
		{"ridge-order", Options{Ridge: 0.05, ModeOrder: []int{2, 0, 1}}, 0x62bb0ad35e68209f},
		{"nonneg", Options{NonNegative: true}, 0xd242b5e5edeacfe7},
	}
	for _, tc := range cases {
		opt := tc.opt
		opt.Rank, opt.MaxIters, opt.Tol, opt.Seed, opt.Workers = 5, 8, 1e-14, 3, 1
		res, err := Run(x, coo.New(x, 1), opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := resultHash(res); got != tc.want {
			t.Errorf("%s: result hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
