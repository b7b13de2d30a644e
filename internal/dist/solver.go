package dist

import (
	"adatm/internal/engine"
	"adatm/internal/tensor"
)

// Cluster is a set of simulated processes over one tensor: the partition,
// its row owners and communication accounting, and one MTTKRP engine per
// shard. cpd.RunDist drives the engines through an Exchange.
type Cluster struct {
	X      *tensor.COO
	Part   *Partition
	Owners *RowOwners
	Comm   CommStats
	// Engines holds one MTTKRP engine per process over its shard.
	Engines []engine.Engine
}

// NewCluster shards the tensor and builds one engine per process via the
// factory (shard) -> engine. The row owners and communication accounting
// come from p.Analysis, so a partition already scored is not analyzed again.
func NewCluster(x *tensor.COO, p *Partition, factory func(shard *tensor.COO) engine.Engine) *Cluster {
	owners, stats := p.Analysis(x)
	c := &Cluster{X: x, Part: p, Owners: owners, Comm: stats}
	c.Engines = make([]engine.Engine, p.P)
	for i, s := range Shards(x, p) {
		c.Engines[i] = factory(s)
	}
	return c
}

// CostModel is the α–β machine model used to predict one CP-ALS iteration
// under a partition. The model's partition selector and the E22 scaling
// table both score with Iteration.
type CostModel struct {
	NsPerOp    float64 // per Hadamard op unit on a process
	AlphaNs    float64 // per message latency
	BetaNsByte float64 // per byte of communication
}

// Iteration predicts one iteration of an order-n CP-ALS at the given rank
// under the partition: computeNS is the most loaded process's n²·R op
// units per nonzero, and commNS is α per fold and expand message plus β
// per byte of fold+expand volume.
func (m CostModel) Iteration(p *Partition, comm CommStats, n, rank int) (computeNS, commNS float64) {
	maxLoad := 0
	for _, l := range p.Loads() {
		maxLoad = max(maxLoad, l)
	}
	computeNS = float64(maxLoad) * float64(n*n*rank) * m.NsPerOp
	commNS = m.AlphaNs*float64(2*comm.Messages) + m.BetaNsByte*float64(comm.VolumeBytes(rank))
	return computeNS, commNS
}
