package engine_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"adatm/internal/accum"
	"adatm/internal/coo"
	"adatm/internal/dense"
	"adatm/internal/engine"
	"adatm/internal/hicoo"
	"adatm/internal/tensor"
)

// TestStreamingMTTKRPPin pins the element-streaming engines bit for bit:
// the COO and HiCOO MTTKRP outputs of every mode, under both accumulation
// backends, at orders 3–7 and R ∈ {8, 16, 17}, hash to the values the
// unfused Scale/MulInto/AddInto chain produced. The orders cover the fused
// bodies (2–4 rows) and the blocked path (5 and 6 rows); the ranks cover
// the fixed-size four-row body (R = 16), the unrolled one, and its scalar
// tail (R = 17). Workers = 1 keeps the accumulation order fixed.
func TestStreamingMTTKRPPin(t *testing.T) {
	want := map[string]uint64{
		"coo/order3":   0x05b1f6a7f234c645,
		"coo/order4":   0x9adaae4d4a922349,
		"coo/order5":   0x390c4b1c97527e75,
		"coo/order6":   0x8ba525f34c888281,
		"coo/order7":   0x45bc4339489653d9,
		"hicoo/order3": 0xc5d4a2fcd34d4bf9,
		"hicoo/order4": 0xb6e6314dc05a8901,
		"hicoo/order5": 0x19ec521f3e191b4d,
		"hicoo/order6": 0xb1330b9aa0fd1535,
		"hicoo/order7": 0x4f2217582085aa75,
	}
	builders := map[string]func(*tensor.COO, accum.Config) engine.Engine{
		"coo":   func(x *tensor.COO, c accum.Config) engine.Engine { return coo.NewWithAccum(x, 1, c) },
		"hicoo": func(x *tensor.COO, c accum.Config) engine.Engine { return hicoo.NewWithAccum(x, 1, c) },
	}
	for order := 3; order <= 7; order++ {
		// Dims past the 128-wide HiCOO block, so elements decode against
		// more than one block origin per mode.
		x := tensor.RandomClustered(order, 200, 600, 0.7, int64(40+order))
		for name, build := range builders {
			h := fnv.New64a()
			var b [8]byte
			for _, r := range []int{8, 16, 17} {
				fs := factors(x, r, int64(100*order+r))
				for _, f := range fs {
					for i := 0; i < len(f.Data); i += 3 {
						f.Data[i] = -f.Data[i]
					}
				}
				for _, s := range []accum.Strategy{accum.Scatter, accum.Privatize} {
					e := build(x, pinned(s, order, 0))
					for mode := 0; mode < order; mode++ {
						out := dense.New(x.Dims[mode], r)
						if err := e.MTTKRP(mode, fs, out); err != nil {
							t.Fatal(err)
						}
						for _, v := range out.Data {
							binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
							h.Write(b[:])
						}
					}
				}
			}
			key := fmt.Sprintf("%s/order%d", name, order)
			if got := h.Sum64(); got != want[key] {
				t.Errorf("%s: output hash %#x, want %#x", key, got, want[key])
			}
		}
	}
}
