package dist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"adatm/internal/engine"
	"adatm/internal/tensor"
)

// ---------------------------------------------------------------------------
// Shards round-trip: a partition must tear the tensor into shards that
// reassemble exactly — every nonzero in exactly one shard, dims preserved,
// nnz conserved — for every partitioner and for fuzzed tensors.
// ---------------------------------------------------------------------------

// nnzKey builds a collision-free string key for one nonzero (indices + the
// exact float bits), so multiset equality catches duplicated coordinates
// with distinct values too.
func nnzKey(inds []tensor.Index, val float64) string {
	return fmt.Sprintf("%v|%016x", inds, math.Float64bits(val))
}

func nnzMultiset(x *tensor.COO) map[string]int {
	set := make(map[string]int, x.NNZ())
	idx := make([]tensor.Index, x.Order())
	for k := 0; k < x.NNZ(); k++ {
		for m := range idx {
			idx[m] = x.Inds[m][k]
		}
		set[nnzKey(idx, x.Vals[k])]++
	}
	return set
}

func checkShardsRoundTrip(t *testing.T, x *tensor.COO, p *Partition) {
	t.Helper()
	shards := Shards(x, p)
	if len(shards) != p.P {
		t.Fatalf("%s: %d shards for P=%d", p.Name, len(shards), p.P)
	}
	want := nnzMultiset(x)
	got := make(map[string]int)
	total := 0
	for q, s := range shards {
		// Shard dims must match the parent exactly so per-shard MTTKRP
		// partials align row-for-row with the global output.
		if len(s.Dims) != len(x.Dims) {
			t.Fatalf("%s shard %d: order %d vs parent %d", p.Name, q, len(s.Dims), len(x.Dims))
		}
		for m, d := range s.Dims {
			if d != x.Dims[m] {
				t.Fatalf("%s shard %d: dim[%d]=%d vs parent %d", p.Name, q, m, d, x.Dims[m])
			}
		}
		total += s.NNZ()
		for k, c := range nnzMultiset(s) {
			got[k] += c
		}
	}
	if total != x.NNZ() {
		t.Fatalf("%s: shard nnz sum %d vs parent %d", p.Name, total, x.NNZ())
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct nonzeros across shards vs %d in parent", p.Name, len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("%s: nonzero %s appears %d times across shards, %d in parent", p.Name, k, got[k], c)
		}
	}
}

func TestShardsRoundTripAllPartitioners(t *testing.T) {
	x := tensor.RandomClustered(3, 14, 900, 0.6, 620)
	for _, procs := range []int{1, 2, 5, 9} {
		for _, p := range partitioners(x, procs) {
			checkShardsRoundTrip(t, x, p)
		}
	}
}

// Fuzzed tensors: random order/dims/density, all three partitioners.
func TestShardsRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(3)
		procs := 1 + rng.Intn(10)
		x := tensor.RandomClustered(order, 5+rng.Intn(12), 40+rng.Intn(400), rng.Float64(), seed)
		for _, p := range partitioners(x, procs) {
			shards := Shards(x, p)
			total := 0
			for _, s := range shards {
				total += s.NNZ()
				for m, d := range s.Dims {
					if d != x.Dims[m] {
						return false
					}
				}
			}
			if total != x.NNZ() {
				return false
			}
			// Exactly-one-shard membership via the owner array itself:
			// shard q holds precisely the nonzeros with Owner[k] == q,
			// in parent order. Verify against the loads.
			loads := p.Loads()
			for q, s := range shards {
				if s.NNZ() != loads[q] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// AnalyzeComm invariants, recomputed by brute force.
// ---------------------------------------------------------------------------

func TestAnalyzeCommInvariants(t *testing.T) {
	x := tensor.RandomClustered(3, 12, 500, 0.6, 621)
	for _, procs := range []int{2, 4, 7} {
		for _, p := range partitioners(x, procs) {
			owners, stats := AnalyzeComm(x, p)

			// Brute-force connectivity per (mode, row).
			var totalRows int64
			var messages int64
			for m := 0; m < x.Order(); m++ {
				touch := make(map[tensor.Index]map[int32]bool)
				for k := 0; k < x.NNZ(); k++ {
					i := x.Inds[m][k]
					if touch[i] == nil {
						touch[i] = map[int32]bool{}
					}
					touch[i][p.Owner[k]] = true
				}
				// TotalRows invariant: Σ_rows (κ_i − 1).
				for _, set := range touch {
					totalRows += int64(len(set) - 1)
				}
				// Messages invariant: distinct sender→owner pairs, folds
				// only (sender ≠ owner), counted per mode.
				pairs := map[[2]int32]bool{}
				for i, set := range touch {
					own := owners.Owner[m][i]
					if !set[own] {
						t.Fatalf("%s P=%d mode %d row %d: owner %d does not touch the row", p.Name, procs, m, i, own)
					}
					for proc := range set {
						if proc != own {
							pairs[[2]int32{proc, own}] = true
						}
					}
				}
				messages += int64(len(pairs))
				// Empty rows own nothing.
				for i, o := range owners.Owner[m] {
					if touch[tensor.Index(i)] == nil && o != -1 {
						t.Fatalf("%s P=%d mode %d row %d: empty row owned by %d", p.Name, procs, m, i, o)
					}
				}
			}
			if stats.TotalRows != totalRows {
				t.Errorf("%s P=%d: TotalRows %d, brute force %d", p.Name, procs, stats.TotalRows, totalRows)
			}
			if stats.Messages != messages {
				t.Errorf("%s P=%d: Messages %d, brute force %d", p.Name, procs, stats.Messages, messages)
			}
		}
	}
}

// An explicitly empty row (a dim index no nonzero uses) must get owner −1.
func TestAnalyzeCommEmptyRowOwner(t *testing.T) {
	x := tensor.NewCOO([]int{4, 4, 4}, 2)
	x.Append([]tensor.Index{0, 0, 0}, 1.0)
	x.Append([]tensor.Index{3, 3, 3}, 2.0)
	p := &Partition{P: 2, Owner: []int32{0, 1}, Name: "manual"}
	owners, stats := AnalyzeComm(x, p)
	for m := 0; m < 3; m++ {
		for _, i := range []int{1, 2} {
			if owners.Owner[m][i] != -1 {
				t.Errorf("mode %d row %d: want owner -1, got %d", m, i, owners.Owner[m][i])
			}
		}
		if owners.Owner[m][0] != 0 || owners.Owner[m][3] != 1 {
			t.Errorf("mode %d: singleton rows must be owned by their sole toucher: %v", m, owners.Owner[m][:4])
		}
	}
	if stats.TotalRows != 0 || stats.Messages != 0 {
		t.Errorf("disjoint nonzeros need no communication: %+v", stats)
	}
}

// Analysis runs AnalyzeComm once per partition and tensor: the cluster
// built from a partition already analyzed (scored) takes the same row
// owners rather than a second pass, and another tensor is analyzed afresh.
func TestPartitionAnalysisOnce(t *testing.T) {
	x := tensor.RandomClustered(3, 12, 300, 0.7, 623)
	p := RandomPartition(x, 3, 1)
	owners, stats := p.Analysis(x)
	freshOwners, freshStats := AnalyzeComm(x, p)
	if stats != freshStats || !reflect.DeepEqual(owners, freshOwners) {
		t.Fatalf("Analysis %+v differs from AnalyzeComm %+v", stats, freshStats)
	}
	c := NewCluster(x, p, func(s *tensor.COO) engine.Engine { return nil })
	if c.Owners != owners || c.Comm != stats {
		t.Error("NewCluster analyzed a partition that was already analyzed")
	}
	y := x.Clone()
	if o, _ := p.Analysis(y); o == owners || !reflect.DeepEqual(o, owners) {
		t.Error("another tensor must be analyzed afresh, to the same owners")
	}
	// The exchange reads the schedule the analysis cached, and building it
	// makes no pass of its own.
	tr := NewChanTransport(p.P)
	defer tr.Close()
	ex, err := NewExchange(c, tr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.c.Owners != owners {
		t.Error("the exchange does not use the cached schedule")
	}
	if n := testing.AllocsPerRun(10, func() { NewExchange(c, tr, 4, nil) }); n > 1 {
		t.Errorf("NewExchange allocated %v times: it must build no schedule", n)
	}
}

// The statistics are counts over the schedule's lists: TotalRows is the
// fold rows, Messages the non-empty (sender, owner) lists, MaxProcRows the
// busiest sender's fold rows, and own[m][q] the ascending rows q owns.
func TestCommStatsMatchSchedule(t *testing.T) {
	empty := tensor.NewCOO([]int{4, 4, 4}, 2)
	empty.Append([]tensor.Index{0, 0, 0}, 1.0)
	empty.Append([]tensor.Index{3, 3, 3}, 2.0)
	type scored struct {
		x *tensor.COO
		p *Partition
	}
	cases := []scored{{empty, &Partition{P: 2, Owner: []int32{0, 1}, Name: "manual"}}}
	x := tensor.RandomClustered(3, 12, 500, 0.6, 621)
	for _, procs := range []int{2, 4, 7} {
		for _, p := range partitioners(x, procs) {
			cases = append(cases, scored{x, p})
		}
	}
	for _, c := range cases {
		owners, stats := AnalyzeComm(c.x, c.p)
		var total, msgs, maxProc int64
		for proc := 0; proc < c.p.P; proc++ {
			var sent int64
			for m := range owners.fold {
				for _, rows := range owners.fold[m][proc] {
					sent += int64(len(rows))
					if len(rows) > 0 {
						msgs++
					}
				}
			}
			total += sent
			maxProc = max(maxProc, sent)
		}
		if stats.TotalRows != total || stats.Messages != msgs || stats.MaxProcRows != maxProc {
			t.Errorf("%s P=%d: stats %+v, lists give TotalRows %d, Messages %d, MaxProcRows %d",
				c.p.Name, c.p.P, stats, total, msgs, maxProc)
		}
		for m, own := range owners.own {
			for q := range own {
				var want []int32
				for i, o := range owners.Owner[m] {
					if int(o) == q {
						want = append(want, int32(i))
					}
				}
				if !slices.Equal(own[q], want) {
					t.Errorf("%s P=%d mode %d: own[%d] = %v, want %v", c.p.Name, c.p.P, m, q, own[q], want)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Partition degenerate-input regressions (ISSUE 10 satellite).
// ---------------------------------------------------------------------------

func TestImbalanceEmptyAndSparsePartitions(t *testing.T) {
	// All-empty: nnz == 0 under P=8 must be imbalance 1, not NaN.
	empty := &Partition{P: 8, Owner: nil, Name: "empty"}
	if imb := empty.Imbalance(); imb != 1 || math.IsNaN(imb) {
		t.Errorf("empty partition imbalance = %v, want 1", imb)
	}
	if loads := empty.Loads(); len(loads) != 8 {
		t.Errorf("empty partition loads = %v, want 8 zeros", loads)
	}

	// P > nnz: some shards empty, imbalance finite and ≥ 1.
	x := tensor.RandomClustered(3, 6, 5, 0.5, 622)
	for _, p := range partitioners(x, 16) {
		imb := p.Imbalance()
		if math.IsNaN(imb) || math.IsInf(imb, 0) || imb < 1 {
			t.Errorf("%s P=16 nnz=%d: imbalance %v", p.Name, x.NNZ(), imb)
		}
		checkShardsRoundTrip(t, x, p)
	}

	// Degenerate P: never panic, never divide by zero.
	broken := &Partition{P: 0, Owner: nil, Name: "p0"}
	if imb := broken.Imbalance(); imb != 1 {
		t.Errorf("P=0 imbalance = %v, want 1", imb)
	}
	if loads := broken.Loads(); len(loads) != 0 {
		t.Errorf("P=0 loads = %v, want empty", loads)
	}
}

// factorGrid ties on equal dims must resolve deterministically to the
// lowest mode index (pinned: the conformance fixtures and audit records
// depend on stable grids).
func TestFactorGridDeterministicTies(t *testing.T) {
	cases := []struct {
		procs int
		dims  []int
		want  []int
	}{
		{4, []int{10, 10, 10}, []int{2, 2, 1}},
		{8, []int{5, 5, 5}, []int{2, 2, 2}},
		{6, []int{7, 7}, []int{2, 3}},
	}
	for _, c := range cases {
		got := factorGrid(c.procs, c.dims)
		if len(got) != len(c.want) {
			t.Fatalf("factorGrid(%d,%v) = %v", c.procs, c.dims, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("factorGrid(%d,%v) = %v, want %v", c.procs, c.dims, got, c.want)
				break
			}
		}
		// And it must be a pure function: repeated calls agree.
		again := factorGrid(c.procs, c.dims)
		for i := range got {
			if got[i] != again[i] {
				t.Errorf("factorGrid(%d,%v) unstable: %v then %v", c.procs, c.dims, got, again)
				break
			}
		}
	}
}
