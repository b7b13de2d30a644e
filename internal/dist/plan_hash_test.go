package dist

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"adatm/internal/tensor"
)

// scheduleHash folds a partition's nonzero owners, its row owners, its
// communication statistics and its exchange plan into one FNV-64a value.
func scheduleHash(x *tensor.COO, part *Partition) uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	list := func(rows []int32) {
		put(int64(len(rows)))
		for _, r := range rows {
			put(int64(r))
		}
	}
	list(part.Owner)
	owners, stats := AnalyzeComm(x, part)
	for _, o := range owners.Owner {
		list(o)
	}
	put(int64(stats.P))
	put(stats.TotalRows)
	put(stats.MaxProcRows)
	put(stats.Messages)
	put(int64(stats.MaxRowConnectivity))
	plan := owners
	for m := range plan.own {
		for p := range plan.own[m] {
			list(plan.own[m][p])
			list(plan.self[m][p])
			for q := range plan.fold[m][p] {
				list(plan.fold[m][p][q])
			}
		}
	}
	return h.Sum64()
}

// TestScheduleHashes pins partition scoring and the exchange schedule: the
// nonzero owners, row owners, communication statistics and exchange plan
// of every partitioner at P ∈ {2, 4, 7} hash to the values the map-based
// per-row process sets produced.
func TestScheduleHashes(t *testing.T) {
	xs := []*tensor.COO{
		tensor.RandomClustered(3, 40, 2500, 0.7, 901),
		tensor.Generate(tensor.GenSpec{Dims: []int{300, 200, 100, 8}, NNZ: 4000, Skew: []float64{0.9, 0.5, 0.3, 0}, Seed: 902}),
	}
	want := []struct {
		x, procs int
		part     string
		hash     uint64
	}{
		{0, 2, "random", 0x80a4ba6e6b0cd1b9},
		{0, 2, "medium-grain", 0x4dd168594cd66b07},
		{0, 2, "fine-greedy", 0x1a6fab4163b5dd85},
		{0, 4, "random", 0x55857e94089e8c25},
		{0, 4, "medium-grain", 0xa46a937bc7ca7d31},
		{0, 4, "fine-greedy", 0xee16efed61673cd8},
		{0, 7, "random", 0x2c44539cda7ff477},
		{0, 7, "medium-grain", 0x5488a5da82791cc0},
		{0, 7, "fine-greedy", 0x21db635028c01fc9},
		{1, 2, "random", 0xae6c5badb93a6f48},
		{1, 2, "medium-grain", 0x788a9034e1129a80},
		{1, 2, "fine-greedy", 0x86186000661ab4cc},
		{1, 4, "random", 0x8b2abfc43e54adfb},
		{1, 4, "medium-grain", 0x8145d6da8ace397f},
		{1, 4, "fine-greedy", 0xb2f5858da3485f8e},
		{1, 7, "random", 0x8b98629a5df64e1b},
		{1, 7, "medium-grain", 0x672c21bb83b4b32c},
		{1, 7, "fine-greedy", 0xcaf7366de17b8aa7},
	}
	i := 0
	for xi, x := range xs {
		for _, procs := range []int{2, 4, 7} {
			for _, part := range partitioners(x, procs) {
				w := want[i]
				i++
				if w.x != xi || w.procs != procs || w.part != part.Name {
					t.Fatalf("case %d is tensor %d P=%d %s, table has tensor %d P=%d %s", i, xi, procs, part.Name, w.x, w.procs, w.part)
				}
				if got := scheduleHash(x, part); got != w.hash {
					t.Errorf("tensor %d P=%d %s: schedule hash %#x, want %#x", xi, procs, part.Name, got, w.hash)
				}
			}
		}
	}
}
