package memo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"adatm/internal/accum"
	"adatm/internal/dense"
	"adatm/internal/tensor"
)

// TestMemoMTTKRPPin pins the memoized engine bit for bit: the MTTKRP
// outputs of every mode over two sweeps (each mode's factor invalidated
// after its update, so every node is rebuilt), under both accumulation
// backends, at R ∈ {8, 16, 17}, hash to the values the per-nonzero
// HadamardAccum loop produced. The trees are flat (every root child is a
// leaf), every two-group split (a leaf next to a group at the ends) and
// balanced, at orders 3–6; the ranks cover the streamed kernel's 8- and
// 4-column blocks and its scalar tail. Both layouts of the root children —
// streamed and gathered through redElems — must give the same bits. The
// entries with an order suffix are trees over that mode order, swept in it;
// their values come from an engine built over a permuted copy of the
// tensor, so they also pin that the ordered view copies nothing that
// changes the arithmetic.
func TestMemoMTTKRPPin(t *testing.T) {
	want := map[string]uint64{
		"order3/flat":     0x88c804950668002d,
		"order3/balanced": 0x460e08f50379b455,
		"order3/2group@1": 0x644bf6ac6b83ecf5,
		"order3/2group@2": 0x460e08f50379b455,
		"order4/flat":     0x9a0ac9e9bb1e2e6d,
		"order4/balanced": 0xeb88934ef6d07e95,
		"order4/2group@1": 0xe48e79020365a45d,
		"order4/2group@2": 0xeb88934ef6d07e95,
		"order4/2group@3": 0x8c817b057900adcd,
		"order5/flat":     0xdc7408d8a6bf6edd,
		"order5/balanced": 0x38291b75e932fddd,
		"order5/2group@1": 0x6636aeb0773a1bb5,
		"order5/2group@2": 0x0fbb064b258936e5,
		"order5/2group@3": 0x53e5e54b892a6c75,
		"order5/2group@4": 0xb1ef86e2d6f5adc5,
		"order6/flat":     0x9e4873d7e3874615,
		"order6/balanced": 0x0aafb05207aca8ad,
		"order6/2group@1": 0x796f1de5a1213efd,
		"order6/2group@2": 0x00b5599ab8bb13b5,
		"order6/2group@3": 0xb603c3a8a71ce2fd,
		"order6/2group@4": 0x43f15e1d154b8025,
		"order6/2group@5": 0x21d8dc2ae2fa73dd,

		"order4/flat[3 1 0 2]":       0xcd5515b7db593df5,
		"order4/balanced[2 0 3 1]":   0xcdc08c6fbabad8ed,
		"order5/balanced[4 1 3 0 2]": 0x9047c38da10e1dad,
		"order5/2group@2[1 3 0 4 2]": 0xb706fd5d72f77d5d,
	}
	orders := map[int]map[string][]int{
		4: {"flat": {3, 1, 0, 2}, "balanced": {2, 0, 3, 1}},
		5: {"balanced": {4, 1, 3, 0, 2}, "2group@2": {1, 3, 0, 4, 2}},
	}
	for order := 3; order <= 6; order++ {
		x := tensor.RandomClustered(order, 40, 700, 0.7, int64(60+order))
		trees := map[string]*Strategy{"flat": Flat(order), "balanced": Balanced(order)}
		for s := 1; s < order; s++ {
			trees[fmt.Sprintf("2group@%d", s)] = TwoGroup(order, s)
		}
		for name, modes := range orders[order] {
			s := *trees[name]
			s.Modes = modes
			trees[fmt.Sprintf("%s%v", name, modes)] = &s
		}
		for name, s := range trees {
			for _, stream := range []bool{true, false} {
				key := fmt.Sprintf("order%d/%s", order, name)
				if got := memoOutputHash(t, x, s, stream); got != want[key] {
					t.Errorf("%s stream=%v: output hash %#x, want %#x", key, stream, got, want[key])
				}
			}
		}
	}
}

// memoOutputHash hashes the pinned MTTKRP sequence of one tree and layout,
// sweeping the modes in the tree's order.
func memoOutputHash(t *testing.T, x *tensor.COO, s *Strategy, stream bool) uint64 {
	order := x.Order()
	h := fnv.New64a()
	var b [8]byte
	for _, r := range []int{8, 16, 17} {
		fs := randomFactors(x, r, int64(100*order+r))
		for _, f := range fs {
			for i := 0; i < len(f.Data); i += 3 {
				f.Data[i] = -f.Data[i]
			}
		}
		for _, st := range []accum.Strategy{accum.Scatter, accum.Privatize} {
			per := make([]accum.Strategy, order)
			for p := range per {
				per[p] = st
			}
			e, err := NewWithConfig(x, s, Config{Workers: 1, StreamRoot: stream, Accum: accum.Config{PerMode: per}})
			if err != nil {
				t.Fatal(err)
			}
			for it := 0; it < 2; it++ {
				for _, mode := range s.SweepOrder() {
					out := dense.New(x.Dims[mode], r)
					if err := e.MTTKRP(mode, fs, out); err != nil {
						t.Fatal(err)
					}
					for _, v := range out.Data {
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
						h.Write(b[:])
					}
					e.FactorUpdated(mode)
				}
			}
		}
	}
	return h.Sum64()
}
