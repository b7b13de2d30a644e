package dist

import (
	"math"
	"testing"

	"adatm/internal/tensor"
)

func partitioners(x *tensor.COO, procs int) []*Partition {
	return []*Partition{
		RandomPartition(x, procs, 1),
		MediumGrainPartition(x, procs),
		FineGrainGreedyPartition(x, procs, 2),
	}
}

func TestPartitionsValid(t *testing.T) {
	x := tensor.RandomClustered(4, 20, 1500, 0.7, 601)
	for _, procs := range []int{1, 3, 8, 16} {
		for _, p := range partitioners(x, procs) {
			if err := p.Validate(x); err != nil {
				t.Errorf("%s P=%d: %v", p.Name, procs, err)
			}
			if imb := p.Imbalance(); p.Name != "medium-grain" && imb > 1.3 {
				t.Errorf("%s P=%d: imbalance %.2f", p.Name, procs, imb)
			}
		}
	}
}

func TestShardsPartitionNonzeros(t *testing.T) {
	x := tensor.RandomClustered(3, 15, 800, 0.5, 602)
	p := FineGrainGreedyPartition(x, 5, 3)
	shards := Shards(x, p)
	total := 0
	sum := 0.0
	for _, s := range shards {
		total += s.NNZ()
		for _, v := range s.Vals {
			sum += v
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if total != x.NNZ() {
		t.Fatalf("shards hold %d of %d nonzeros", total, x.NNZ())
	}
	want := 0.0
	for _, v := range x.Vals {
		want += v
	}
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("value mass changed: %g vs %g", sum, want)
	}
}

func TestCommStatsOrdering(t *testing.T) {
	// On a clustered tensor, the structure-aware partitioners must move
	// less data than random.
	x := tensor.RandomClustered(3, 64, 6000, 1.0, 607)
	procs := 8
	vol := map[string]int64{}
	for _, p := range partitioners(x, procs) {
		_, stats := AnalyzeComm(x, p)
		vol[p.Name] = stats.TotalRows
		if stats.MaxRowConnectivity > procs {
			t.Fatalf("%s: connectivity %d exceeds P", p.Name, stats.MaxRowConnectivity)
		}
		if stats.TotalRows < 0 || stats.Messages < 0 {
			t.Fatalf("%s: negative stats", p.Name)
		}
	}
	if vol["fine-greedy"] >= vol["random"] {
		t.Errorf("fine-greedy volume %d not below random %d", vol["fine-greedy"], vol["random"])
	}
	if vol["medium-grain"] >= vol["random"] {
		t.Errorf("medium-grain volume %d not below random %d", vol["medium-grain"], vol["random"])
	}
}

func TestSingleProcessNoComm(t *testing.T) {
	x := tensor.RandomClustered(3, 10, 300, 0.5, 608)
	p := MediumGrainPartition(x, 1)
	_, stats := AnalyzeComm(x, p)
	if stats.TotalRows != 0 || stats.Messages != 0 {
		t.Errorf("P=1 should need no communication: %+v", stats)
	}
}

func TestRowOwnersTouchTheirRows(t *testing.T) {
	x := tensor.RandomClustered(3, 12, 500, 0.7, 609)
	p := RandomPartition(x, 4, 5)
	owners, _ := AnalyzeComm(x, p)
	// Every owner must actually touch the row it owns.
	for m := 0; m < 3; m++ {
		touch := map[tensor.Index]map[int32]bool{}
		for k := 0; k < x.NNZ(); k++ {
			i := x.Inds[m][k]
			if touch[i] == nil {
				touch[i] = map[int32]bool{}
			}
			touch[i][p.Owner[k]] = true
		}
		for i, o := range owners.Owner[m] {
			if o < 0 {
				if touch[tensor.Index(i)] != nil {
					t.Fatalf("mode %d row %d unowned but touched", m, i)
				}
				continue
			}
			if !touch[tensor.Index(i)][o] {
				t.Fatalf("mode %d row %d owned by non-touching process %d", m, i, o)
			}
		}
	}
}

func TestFactorGrid(t *testing.T) {
	grid := factorGrid(12, []int{1000, 10, 100})
	prod := 1
	for _, g := range grid {
		prod *= g
	}
	if prod != 12 {
		t.Fatalf("grid %v does not multiply to 12", grid)
	}
	// The longest mode must get at least as many slices as any other.
	if grid[0] < grid[1] || grid[0] < grid[2] {
		t.Errorf("grid %v does not favor the longest mode", grid)
	}
}

func TestPredictIterationPositive(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 800, 0.6, 610)
	p := MediumGrainPartition(x, 4)
	_, stats := AnalyzeComm(x, p)
	computeNS, commNS := CostModel{NsPerOp: 1, AlphaNs: 1000, BetaNsByte: 0.1}.Iteration(p, stats, x.Order(), 16)
	if computeNS <= 0 || commNS <= 0 {
		t.Fatalf("non-positive predicted iteration: compute %v ns, comm %v ns", computeNS, commNS)
	}
}
