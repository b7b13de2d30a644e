// Package dist is an EXTENSION beyond the (shared-memory) target paper: a
// distributed-memory simulation of CP-ALS in the style the sparse-tensor
// literature evaluates scalability — nonzero partitioners (random,
// medium-grain Cartesian, fine-grain greedy), factor-row ownership,
// communication-volume and message accounting, and the exchange that
// cpd.RunDist runs its per-process ALS loops over, whose numerics match
// the shared-memory driver (the tensor-times-vector distributive law makes
// per-shard MTTKRP partials sum to the global result).
//
// "Processes" are goroutines, one per tensor shard. They exchange factor
// rows over a Transport: an in-process channel transport, or a
// length-prefixed TCP transport over loopback sockets (tcp.go) with
// acknowledged retransmission and fault injection. Communication is also
// predicted analytically with an α–β (latency–bandwidth) model, to
// reproduce the *partitioning quality* comparisons (volume, balance,
// message counts) that distributed CP papers report.
package dist

import (
	"fmt"
	"math/rand"
	"sync"

	"adatm/internal/tensor"
)

// Partition assigns every nonzero of a tensor to one of P processes.
type Partition struct {
	P     int
	Owner []int32 // Owner[k] = process owning nonzero k
	Name  string

	mu       sync.Mutex    // guards analysis
	analysis *commAnalysis // Analysis's result, kept for its tensor
}

// commAnalysis is AnalyzeComm's result for one tensor.
type commAnalysis struct {
	x      *tensor.COO
	owners *RowOwners
	stats  CommStats
}

// Analysis returns AnalyzeComm(x, p), computed on the first call for x and
// kept on the partition, so scoring a partition and building its cluster
// share one pass. Owner must not change after the first call, and the
// returned RowOwners are shared: read them, do not modify them.
func (p *Partition) Analysis(x *tensor.COO) (*RowOwners, CommStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a := p.analysis; a != nil && a.x == x {
		return a.owners, a.stats
	}
	owners, stats := AnalyzeComm(x, p)
	p.analysis = &commAnalysis{x: x, owners: owners, stats: stats}
	return owners, stats
}

// Validate checks structural sanity.
func (p *Partition) Validate(x *tensor.COO) error {
	if len(p.Owner) != x.NNZ() {
		return fmt.Errorf("dist: %d owners for %d nonzeros", len(p.Owner), x.NNZ())
	}
	for k, o := range p.Owner {
		if o < 0 || int(o) >= p.P {
			return fmt.Errorf("dist: nonzero %d owned by invalid process %d", k, o)
		}
	}
	return nil
}

// Loads returns the nonzero count per process. A non-positive P yields an
// empty slice rather than a panic, so degenerate partitions stay inspectable.
func (p *Partition) Loads() []int {
	if p.P <= 0 {
		return nil
	}
	loads := make([]int, p.P)
	for _, o := range p.Owner {
		if int(o) < len(loads) {
			loads[o]++
		}
	}
	return loads
}

// Imbalance returns max/avg load. An empty partition (no nonzeros at all,
// which happens whenever P > nnz leaves every shard empty, or nnz == 0) is
// perfectly balanced by definition: 1, never NaN/Inf.
func (p *Partition) Imbalance() float64 {
	if p.P <= 0 {
		return 1
	}
	loads := p.Loads()
	max, total := 0, 0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(p.P) / float64(total)
}

// RandomPartition assigns nonzeros uniformly at random — the worst-case
// reference point for communication.
func RandomPartition(x *tensor.COO, procs int, seed int64) *Partition {
	rng := rand.New(rand.NewSource(seed))
	p := &Partition{P: procs, Owner: make([]int32, x.NNZ()), Name: "random"}
	for k := range p.Owner {
		p.Owner[k] = int32(rng.Intn(procs))
	}
	return p
}

// MediumGrainPartition imposes a Cartesian process grid over the index
// space (the checkerboard/medium-grain scheme): procs is factored into a
// grid with per-mode extents roughly proportional to the mode sizes, and a
// nonzero's owner is determined by its block coordinates.
func MediumGrainPartition(x *tensor.COO, procs int) *Partition {
	n := x.Order()
	grid := factorGrid(procs, x.Dims)
	p := &Partition{P: procs, Owner: make([]int32, x.NNZ()), Name: "medium-grain"}
	for k := 0; k < x.NNZ(); k++ {
		owner := 0
		for m := 0; m < n; m++ {
			if grid[m] == 1 {
				continue
			}
			block := int(int64(x.Inds[m][k]) * int64(grid[m]) / int64(x.Dims[m]))
			if block >= grid[m] {
				block = grid[m] - 1
			}
			owner = owner*grid[m] + block
		}
		p.Owner[k] = int32(owner)
	}
	return p
}

// factorGrid factors procs into per-mode extents, assigning factors to the
// largest remaining mode first (the standard heuristic: more slices along
// long modes cut communication in the other modes).
func factorGrid(procs int, dims []int) []int {
	n := len(dims)
	grid := make([]int, n)
	for i := range grid {
		grid[i] = 1
	}
	remaining := procs
	work := append([]int(nil), dims...)
	for remaining > 1 {
		// Smallest prime factor of remaining.
		f := 2
		for ; f*f <= remaining; f++ {
			if remaining%f == 0 {
				break
			}
		}
		if remaining%f != 0 {
			f = remaining
		}
		// Give it to the mode with the largest dims/grid ratio. The strict
		// inequality pins ties to the lowest mode index, so equal-dim
		// tensors always produce the same grid (determinism matters: the
		// partition feeds conformance baselines and audit records).
		best := 0
		for m := 1; m < n; m++ {
			if work[m]*grid[best] > work[best]*grid[m] {
				best = m
			}
		}
		grid[best] *= f
		remaining /= f
	}
	return grid
}

// FineGrainGreedyPartition assigns nonzeros one at a time to the process
// that already "knows" the most of the nonzero's index rows (a cheap
// label-propagation-flavoured heuristic), subject to a load cap. Supports
// up to 64 processes (process sets are bitmasks).
func FineGrainGreedyPartition(x *tensor.COO, procs int, seed int64) *Partition {
	if procs > 64 {
		panic("dist: fine-grain greedy supports at most 64 processes")
	}
	n := x.Order()
	if n > 16 {
		panic("dist: fine-grain greedy supports at most order-16 tensors")
	}
	nnz := x.NNZ()
	p := &Partition{P: procs, Owner: make([]int32, nnz), Name: "fine-greedy"}
	// rowProcs[m][i] = bitmask of processes already touching row i of mode m.
	rowProcs := make([][]uint64, n)
	for m := range rowProcs {
		rowProcs[m] = make([]uint64, x.Dims[m])
	}
	loads := make([]int, procs)
	cap := (nnz + procs - 1) / procs
	cap += cap / 20 // 5% slack on perfect balance
	// Visit in a shuffled order so index locality does not bias early
	// assignments.
	order := rand.New(rand.NewSource(seed)).Perm(nnz)
	for _, k := range order {
		var masks [16]uint64
		for m := 0; m < n; m++ {
			masks[m] = rowProcs[m][x.Inds[m][k]]
		}
		best, bestScore := -1, -1
		for proc := 0; proc < procs; proc++ {
			if loads[proc] >= cap {
				continue
			}
			bit := uint64(1) << uint(proc)
			score := 0
			for m := 0; m < n; m++ {
				if masks[m]&bit != 0 {
					score++
				}
			}
			// Prefer higher affinity; break ties toward the lighter load.
			if score > bestScore || (score == bestScore && best >= 0 && loads[proc] < loads[best]) {
				best, bestScore = proc, score
			}
		}
		if best < 0 { // every process at cap (cannot happen with slack > 0)
			best = 0
		}
		p.Owner[k] = int32(best)
		loads[best]++
		bit := uint64(1) << uint(best)
		for m := 0; m < n; m++ {
			rowProcs[m][x.Inds[m][k]] |= bit
		}
	}
	return p
}

// Shards splits the tensor into per-process COO shards. The shards share
// the tensor's dimensions, so per-shard MTTKRP partials align row-for-row
// with the global output (the distributive law of TTVs makes their sum the
// global MTTKRP).
func Shards(x *tensor.COO, p *Partition) []*tensor.COO {
	shards := make([]*tensor.COO, p.P)
	loads := p.Loads()
	for i := range shards {
		shards[i] = tensor.NewCOO(x.Dims, loads[i])
	}
	idx := make([]tensor.Index, x.Order())
	for k := 0; k < x.NNZ(); k++ {
		for m := range idx {
			idx[m] = x.Inds[m][k]
		}
		shards[p.Owner[k]].Append(idx, x.Vals[k])
	}
	return shards
}
