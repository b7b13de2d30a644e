package adatm

import (
	"fmt"

	"adatm/internal/audit"
	"adatm/internal/cpd"
	"adatm/internal/dist"
	"adatm/internal/model"
	"adatm/internal/tensor"
)

// Distributed (sharded) decomposition: the public surface over
// cpd.RunDist and internal/dist. The solver runs the single-node ALS loop
// once per simulated process, exchanging fold/expand row messages over a
// pluggable transport, and is numerically identical to the single-node
// solver (see DESIGN.md §2j).

// Re-exported distributed-layer types.
type (
	// DistResult is a distributed decomposition: the embedded Result plus
	// its communication accounting (messages sent, transport retries,
	// predicted volume).
	DistResult = cpd.DistResult
	// DistFault injects transport faults (drop/duplicate/delay) into the
	// TCP transport for resilience testing.
	DistFault = dist.FaultConfig
	// DistCommStats is the partition's exact per-iteration communication
	// accounting (fold row volume, message count, connectivity).
	DistCommStats = dist.CommStats
	// PartitionPlan is the scored partitioner candidate list and choice.
	PartitionPlan = model.PartitionPlan
)

// Partition names accepted by Options.Partition.
const (
	// PartitionAuto lets the cost model choose (the default).
	PartitionAuto = "auto"
	// PartitionRandom places nonzeros uniformly at random.
	PartitionRandom = "random"
	// PartitionMediumGrain uses the Cartesian process-grid scheme.
	PartitionMediumGrain = "medium-grain"
	// PartitionFineGreedy uses the affinity-greedy per-nonzero scheme.
	PartitionFineGreedy = "fine-greedy"
)

// Transport names accepted by Options.Transport.
const (
	// TransportChan is the deterministic in-process transport (default).
	TransportChan = "chan"
	// TransportTCP is the length-prefixed TCP loopback transport with
	// acknowledged retransmission.
	TransportTCP = "tcp"
)

// DistOptions is an alias of Options, kept while the benchmark harness in
// perfbench/ still names it (ROADMAP item 6).
type DistOptions = Options

// PartitionPlanFor scores the partitioner family for x at the given process
// count and rank and returns the plan (call PartitionPlan.String for a
// report table).
func PartitionPlanFor(x *Tensor, procs, rank int, seed int64) (*PartitionPlan, error) {
	return model.SelectPartition(x, model.PartitionOptions{Procs: procs, Rank: rank, Seed: seed})
}

// DecomposeDist computes a rank-R CP decomposition of x over opt.Procs
// simulated processes (<= 0: 2) and returns it with the run's
// communication accounting; Decompose with Procs > 1 runs the same and
// returns the Result alone. The Result matches what Decompose produces on
// one node to within float reassociation of the distributed reductions
// (see DESIGN.md §2j). Each shard gets its own engine of kind opt.Engine
// (default EngineCOO; an empty shard always coo) under opt.MemoryBudget
// as a per-process cap. opt.Audit records the partition decision;
// Checkpoint is refused. Every refusal comes before any set-up work, so a
// refused run scores no partition and writes no ledger record.
func DecomposeDist(x *Tensor, opt Options) (*DistResult, error) {
	if err := checkTensor(x); err != nil {
		return nil, err
	}
	if opt.Procs <= 0 {
		opt.Procs = 2
	}
	if opt.Rank <= 0 {
		return nil, fmt.Errorf("adatm: Rank must be positive")
	}
	if opt.Checkpoint != nil {
		return nil, fmt.Errorf("adatm: a sharded run does not support Checkpoint")
	}
	if err := model.CheckPartitioner(opt.Partition, opt.Procs, x.Order()); err != nil {
		return nil, fmt.Errorf("adatm: %w", err)
	}
	tr, err := buildTransport(opt)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	part, err := selectPartition(x, opt)
	if err != nil {
		return nil, err
	}

	kind := opt.Engine
	if kind == "" {
		// Shards stay coo until adaptive shards pay end to end on the
		// sharded shape (ROADMAP item 1).
		kind = EngineCOO
	}
	cfg := EngineConfig{Rank: opt.Rank, Workers: opt.Workers, MemoryBudget: opt.MemoryBudget}
	var engErr error
	cluster := dist.NewCluster(x, part, func(shard *tensor.COO) Engine {
		k := kind
		if shard.NNZ() == 0 {
			k = EngineCOO
		}
		eng, err := NewEngine(shard, k, cfg)
		if err != nil && engErr == nil {
			engErr = err
		}
		return eng
	})
	if engErr != nil {
		return nil, engErr
	}

	copt := cpdOptions(opt)
	copt.Audit = nil // recorded above, as the partition decision
	return cpd.RunDist(x, cluster, tr, copt)
}

// selectPartition resolves Options.Partition and records the scored plan
// through the audit recorder, so the ledger carries the evidence: every
// candidate and the model's choice for PartitionAuto; for a forced
// partitioner, that one candidate, built and scored alone, with reason
// user-forced.
func selectPartition(x *Tensor, opt Options) (*dist.Partition, error) {
	transport := opt.Transport
	if transport == "" {
		transport = TransportChan
	}
	plan, err := model.SelectPartition(x, model.PartitionOptions{
		Procs: opt.Procs, Rank: opt.Rank, Seed: opt.Seed, Partitioner: opt.Partition,
	})
	if err != nil {
		return nil, fmt.Errorf("adatm: %w", err)
	}
	dec := audit.NewPartitionDecision(plan, transport)
	if opt.Partition != "" && opt.Partition != PartitionAuto {
		dec.Reason = audit.ReasonUserForced
	}
	opt.Audit.RecordPartition(dec)
	return plan.Chosen.Part, nil
}

// buildTransport resolves Options.Transport.
func buildTransport(opt Options) (dist.Transport, error) {
	switch opt.Transport {
	case "", TransportChan:
		if opt.Fault != nil {
			return nil, fmt.Errorf("adatm: fault injection requires the tcp transport")
		}
		return dist.NewChanTransport(opt.Procs), nil
	case TransportTCP:
		cfg := dist.TCPConfig{}
		if opt.Fault != nil {
			cfg.Fault = *opt.Fault
		}
		return dist.NewTCPTransport(opt.Procs, cfg)
	default:
		return nil, fmt.Errorf("adatm: unknown transport %q (want chan, tcp)", opt.Transport)
	}
}
