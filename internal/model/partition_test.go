package model

import (
	"slices"
	"strings"
	"testing"
	"time"

	"adatm/internal/dist"
	"adatm/internal/tensor"
)

func TestSelectPartitionPrefersStructure(t *testing.T) {
	// On a clustered tensor the structure-aware partitioners move far less
	// data than random placement, so with any sane coefficients the model
	// must not choose random.
	x := tensor.RandomClustered(3, 64, 6000, 1.0, 630)
	plan, err := SelectPartition(x, PartitionOptions{Procs: 8, Rank: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen.Name == "random" {
		t.Errorf("model chose random placement on a clustered tensor:\n%s", plan)
	}
	if len(plan.Candidates) != 3 {
		t.Errorf("want 3 scored candidates, got %d", len(plan.Candidates))
	}
	// Candidates are sorted by predicted time ascending and carry their
	// evidence.
	for i, c := range plan.Candidates {
		if c.Part == nil || c.PredNS != c.ComputeNS+c.CommNS {
			t.Errorf("candidate %s: inconsistent record %+v", c.Name, c)
		}
		if i > 0 && c.PredNS < plan.Candidates[i-1].PredNS {
			t.Errorf("candidates not sorted by PredNS at %d", i)
		}
	}
	if plan.Chosen.PredNS > plan.Candidates[len(plan.Candidates)-1].PredNS {
		t.Error("chosen candidate is not the cheapest")
	}
	if got := plan.Partitioner("random"); got == nil || got.Comm.TotalRows == 0 {
		t.Error("random candidate missing or with zero recorded volume")
	}
	if s := plan.String(); !strings.Contains(s, "<= chosen") || !strings.Contains(s, plan.Chosen.Name) {
		t.Errorf("plan report does not mark the choice:\n%s", s)
	}
}

// The score must be the same arithmetic dist.CostModel.Iteration uses on
// the partition's own communication accounting, so audit reconciliation
// can compare prediction to measurement.
func TestSelectPartitionMirrorsCostModel(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 800, 0.6, 631)
	plan, err := SelectPartition(x, PartitionOptions{Procs: 4, Rank: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cm := dist.CostModel{NsPerOp: plan.NsPerOp, AlphaNs: plan.AlphaNS, BetaNsByte: plan.NsPerByte}
	for _, cand := range plan.Candidates {
		_, stats := dist.AnalyzeComm(x, cand.Part)
		computeNS, commNS := cm.Iteration(cand.Part, stats, x.Order(), plan.Rank)
		want := time.Duration(computeNS + commNS)
		if got := time.Duration(cand.PredNS); got != want {
			t.Errorf("%s: plan predicts %v, dist.CostModel predicts %v", cand.Name, got, want)
		}
	}

	// Degenerate inputs are rejected, not scored.
	if _, err := SelectPartition(x, PartitionOptions{Procs: 0}); err == nil {
		t.Error("procs=0 accepted")
	}
	if _, err := SelectPartition(tensor.NewCOO([]int{2, 2}, 0), PartitionOptions{Procs: 2}); err == nil {
		t.Error("empty tensor accepted")
	}
}

// A forced partitioner is built and scored alone, and its candidate is the
// one the full plan scores under that name, field for field; "auto" and
// the empty name score the whole family, and unknown or infeasible names
// are refused.
func TestSelectPartitionForced(t *testing.T) {
	x := tensor.RandomClustered(3, 20, 800, 0.6, 632)
	opt := PartitionOptions{Procs: 4, Rank: 8, Seed: 3}
	full, err := SelectPartition(x, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"random", "medium-grain", "fine-greedy"} {
		forced := opt
		forced.Partitioner = name
		plan, err := SelectPartition(x, forced)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Candidates) != 1 || plan.Chosen.Name != name {
			t.Fatalf("%s: %d candidates, chosen %q", name, len(plan.Candidates), plan.Chosen.Name)
		}
		got, want := plan.Chosen, full.Partitioner(name)
		if got.Comm != want.Comm || got.Imbalance != want.Imbalance || got.PredNS != want.PredNS ||
			got.ComputeNS != want.ComputeNS || got.CommNS != want.CommNS || !slices.Equal(got.Part.Owner, want.Part.Owner) {
			t.Errorf("%s: forced candidate %+v, full plan's %+v", name, got, *want)
		}
	}
	auto := opt
	auto.Partitioner = "auto"
	if plan, err := SelectPartition(x, auto); err != nil || len(plan.Candidates) != 3 || plan.Chosen.Name != full.Chosen.Name {
		t.Errorf("auto: %v, %+v", err, plan)
	}

	bogus := opt
	bogus.Partitioner = "bogus"
	if _, err := SelectPartition(x, bogus); err == nil || !strings.Contains(err.Error(), "unknown partition") {
		t.Errorf("unknown partitioner: %v", err)
	}
	wide := PartitionOptions{Procs: 65, Partitioner: "fine-greedy"}
	if _, err := SelectPartition(x, wide); err == nil || !strings.Contains(err.Error(), "64 processes") {
		t.Errorf("fine-greedy at 65 processes: %v", err)
	}
	wide.Partitioner = ""
	if plan, err := SelectPartition(x, wide); err != nil || len(plan.Candidates) != 2 || plan.Partitioner("fine-greedy") != nil {
		t.Errorf("auto at 65 processes must skip fine-greedy: %v, %+v", err, plan)
	}
}
