package model

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"adatm/internal/dist"
	"adatm/internal/tensor"
)

// Model-driven partition selection for the distributed layer: the same
// philosophy as format selection (enumerate a small candidate family, score
// each with a cost model, pick the cheapest), applied to the question of
// which nonzero partitioner a sharded run should use. The score is
// dist.CostModel.Iteration — the slowest process's compute under the
// roofline's NsPerOp plus α–β communication over the exact fold/expand
// volume dist.AnalyzeComm computes — so the audit layer can later
// reconcile the prediction against the measured run.

// PartitionOptions configures SelectPartition.
type PartitionOptions struct {
	// Procs is the process count (required, >= 1).
	Procs int
	// Rank sizes the factor rows exchanged per fold/expand (<= 0 → 16).
	Rank int
	// Seed drives the randomized partitioners (random placement, greedy
	// visit order).
	Seed int64
	// Partitioner names the one partitioner to build and score (a forced
	// choice); empty or "auto" scores the whole family.
	Partitioner string
}

// PartitionCandidate is one scored partitioner.
type PartitionCandidate struct {
	Name      string
	Part      *dist.Partition
	Comm      dist.CommStats
	Imbalance float64
	ComputeNS float64 // slowest process's per-iteration compute
	CommNS    float64 // α·2·Messages + β·VolumeBytes(rank)
	PredNS    float64 // ComputeNS + CommNS — the ranking criterion
}

// PartitionPlan is the selector's full output: every candidate scored
// (sorted by predicted iteration time ascending) and the chosen one.
type PartitionPlan struct {
	Procs      int
	Rank       int
	NNZ        int
	Order      int
	AlphaNS    float64
	NsPerOp    float64
	NsPerByte  float64
	Candidates []PartitionCandidate
	Chosen     PartitionCandidate
}

// The partition model's machine constants, in the units Calibrate
// produces. Roughly a 1 GHz scalar FMA pipe, 10 GB/s of streaming bandwidth
// and a loopback-TCP-flavored 20µs per message — pessimistic constants are
// fine because only the ranking matters.
const (
	defaultNsPerOp   = 1.0
	defaultNsPerByte = 0.1
	defaultAlphaNS   = 20_000.0
)

// partitioner is one candidate SelectPartition can build.
type partitioner struct {
	name  string
	build func(x *tensor.COO, procs int, seed int64) *dist.Partition
}

// partitioners is the candidate family in enumeration (tie-break) order.
var partitioners = []partitioner{
	{"random", dist.RandomPartition},
	{"medium-grain", func(x *tensor.COO, procs int, _ int64) *dist.Partition {
		return dist.MediumGrainPartition(x, procs)
	}},
	{"fine-greedy", dist.FineGrainGreedyPartition},
}

// CheckPartitioner reports whether SelectPartition accepts name as
// PartitionOptions.Partitioner for an order-n tensor over procs processes.
func CheckPartitioner(name string, procs, n int) error {
	if name == "" || name == "auto" {
		return nil
	}
	if !slices.ContainsFunc(partitioners, func(pt partitioner) bool { return pt.name == name }) {
		return fmt.Errorf("model: unknown partition %q (want auto, random, medium-grain, fine-greedy)", name)
	}
	// The greedy partitioner stores process sets as 64-bit masks and
	// per-nonzero mode loops over a fixed array.
	if name == "fine-greedy" && (procs > 64 || n > 16) {
		return fmt.Errorf("model: fine-greedy partition supports at most 64 processes and order 16")
	}
	return nil
}

// SelectPartition scores the partitioner family (random, medium-grain
// Cartesian, fine-grain greedy; fine-greedy only where CheckPartitioner
// admits it) for x at the given process count and picks the one with the
// smallest predicted per-iteration time. Ties resolve to the earlier
// candidate in enumeration order (random, medium-grain, fine-greedy),
// making the choice deterministic. A forced opt.Partitioner is built and
// scored alone: the plan holds that one candidate.
func SelectPartition(x *tensor.COO, opt PartitionOptions) (*PartitionPlan, error) {
	if x == nil || x.NNZ() == 0 {
		return nil, fmt.Errorf("model: partition selection needs a non-empty tensor")
	}
	if opt.Procs < 1 {
		return nil, fmt.Errorf("model: partition selection needs procs >= 1, got %d", opt.Procs)
	}
	if err := CheckPartitioner(opt.Partitioner, opt.Procs, x.Order()); err != nil {
		return nil, err
	}
	family := partitioners
	if opt.Partitioner != "" && opt.Partitioner != "auto" {
		i := slices.IndexFunc(partitioners, func(pt partitioner) bool { return pt.name == opt.Partitioner })
		family = partitioners[i : i+1]
	}
	rank := opt.Rank
	if rank <= 0 {
		rank = 16
	}

	plan := &PartitionPlan{
		Procs: opt.Procs, Rank: rank, NNZ: x.NNZ(), Order: x.Order(),
		AlphaNS: defaultAlphaNS, NsPerOp: defaultNsPerOp, NsPerByte: defaultNsPerByte,
	}
	cm := dist.CostModel{NsPerOp: defaultNsPerOp, AlphaNs: defaultAlphaNS, BetaNsByte: defaultNsPerByte}
	for _, pt := range family {
		if CheckPartitioner(pt.name, opt.Procs, x.Order()) != nil {
			continue
		}
		p := pt.build(x, opt.Procs, opt.Seed)
		_, stats := p.Analysis(x)
		computeNS, commNS := cm.Iteration(p, stats, x.Order(), rank)
		plan.Candidates = append(plan.Candidates, PartitionCandidate{
			Name: p.Name, Part: p, Comm: stats, Imbalance: p.Imbalance(),
			ComputeNS: computeNS, CommNS: commNS, PredNS: computeNS + commNS,
		})
	}
	sort.SliceStable(plan.Candidates, func(a, b int) bool {
		return plan.Candidates[a].PredNS < plan.Candidates[b].PredNS
	})
	plan.Chosen = plan.Candidates[0]
	return plan, nil
}

// Partitioner returns the named partitioner's candidate from the plan, or
// nil if it was not scored (e.g. fine-greedy past the feasibility gate).
func (p *PartitionPlan) Partitioner(name string) *PartitionCandidate {
	for i := range p.Candidates {
		if p.Candidates[i].Name == name {
			return &p.Candidates[i]
		}
	}
	return nil
}

// String renders the plan as a small report table.
func (p *PartitionPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partition plan: procs=%d rank=%d nnz=%d (α=%s/msg, %.2f ns/op, %.2f ns/B)\n",
		p.Procs, p.Rank, p.NNZ, time.Duration(p.AlphaNS), p.NsPerOp, p.NsPerByte)
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %12s %12s %12s\n",
		"partition", "vol rows", "messages", "imbal", "compute", "comm", "predicted")
	for _, c := range p.Candidates {
		mark := ""
		if c.Name == p.Chosen.Name {
			mark = "  <= chosen"
		}
		fmt.Fprintf(&b, "%-14s %10d %10d %8.2f %12s %12s %12s%s\n",
			c.Name, c.Comm.TotalRows, c.Comm.Messages, c.Imbalance,
			time.Duration(c.ComputeNS), time.Duration(c.CommNS), time.Duration(c.PredNS), mark)
	}
	return b.String()
}
