package dist

import (
	"math/bits"
	"sort"

	"adatm/internal/tensor"
)

// Communication accounting for one CP-ALS iteration under a partition.
//
// In the fold step of mode n, every process holding nonzeros with row index
// i sends its partial MTTKRP row to the row's owner (unless it is the
// owner); the expand step mirrors it with the updated factor rows. The
// per-iteration volume in each mode is therefore Σ_i (κ_i − 1) rows, where
// κ_i counts the processes touching row i — the connectivity-1 metric of
// the fine-grain hypergraph model, evaluated exactly.

// RowOwners assigns each mode row to a process: rows are visited in
// increasing connectivity order and greedily given to the touching process
// with the smallest accumulated communication (the standard mode-
// partitioning heuristic). It also carries the exchange schedule, the row
// lists every Exchange over the partition reads.
type RowOwners struct {
	Owner [][]int32 // Owner[m][i] = owning process of row i in mode m (-1 if the row is empty)

	// own[m][q] lists the rows process q owns in mode m, ascending.
	own [][][]int32
	// fold[m][p][q] lists the rows process p touches that q owns (p ≠ q),
	// ascending: p sends exactly these rows' partials to q in mode m's
	// fold, and q returns the same rows updated in the expand.
	fold [][][][]int32
	// self[m][p] lists the rows p both touches and owns, ascending: the
	// local contribution to p's fold sum. An owner is picked among a row's
	// touching processes, so these are own[m][p], the same slices.
	self [][][]int32
}

// CommStats aggregates the per-iteration communication of a partition.
type CommStats struct {
	P int
	// TotalRows is Σ over modes and rows of (connectivity − 1): the number
	// of partial rows sent in folds (expands mirror it exactly).
	TotalRows int64
	// MaxProcRows is the largest per-process send volume (rows) across the
	// fold steps of one iteration.
	MaxProcRows int64
	// Messages is the total number of point-to-point messages per
	// iteration (distinct sender→owner pairs, folds only; expands mirror).
	Messages int64
	// MaxRowConnectivity is the worst single row's process fan-in.
	MaxRowConnectivity int
}

// VolumeBytes converts the row volume to bytes at rank r (8-byte values),
// counting both fold and expand directions.
func (c CommStats) VolumeBytes(r int) int64 { return c.TotalRows * int64(r) * 8 * 2 }

// AnalyzeComm computes row ownership, the exchange schedule and exact
// communication statistics for the partition, from one pass over the
// nonzeros per mode.
func AnalyzeComm(x *tensor.COO, p *Partition) (*RowOwners, CommStats) {
	n := x.Order()
	owners := &RowOwners{
		Owner: make([][]int32, n),
		own:   make([][][]int32, n),
		fold:  make([][][][]int32, n),
		self:  make([][][]int32, n),
	}
	stats := CommStats{P: p.P}
	procLoad := make([]int64, p.P) // accumulated send volume per process

	for m := 0; m < n; m++ {
		owners.Owner[m] = make([]int32, x.Dims[m])
		for i := range owners.Owner[m] {
			owners.Owner[m][i] = -1
		}
		touch := newProcSets(x.Dims[m], p.P)
		for k := 0; k < x.NNZ(); k++ {
			touch.add(int(x.Inds[m][k]), p.Owner[k])
		}
		// Sort rows by connectivity ascending (cheap rows first, as the
		// mode-partitioning heuristic prescribes) and assign greedily to
		// the least-loaded touching process.
		var rows []rowInfo
		for i := 0; i < x.Dims[m]; i++ {
			conn := touch.count(i)
			if conn == 0 {
				continue
			}
			rows = append(rows, rowInfo{tensor.Index(i), conn})
			if conn > stats.MaxRowConnectivity {
				stats.MaxRowConnectivity = conn
			}
		}
		sort.Slice(rows, func(a, b int) bool {
			if rows[a].conn != rows[b].conn {
				return rows[a].conn < rows[b].conn
			}
			return rows[a].idx < rows[b].idx
		})
		// cnt[p·P+q] counts the rows p folds to owner q (q's own if p = q).
		cnt := make([]int, p.P*p.P)
		var folded int
		for _, ri := range rows {
			i := int(ri.idx)
			// Processes come in ascending order, so the first least-loaded
			// one is the lowest-numbered.
			var best int32 = -1
			touch.each(i, func(proc int32) {
				if best < 0 || procLoad[proc] < procLoad[best] {
					best = proc
				}
			})
			owners.Owner[m][i] = best
			folded += ri.conn - 1
			touch.each(i, func(proc int32) {
				if proc != best {
					procLoad[proc]++
				}
				cnt[int(proc)*p.P+int(best)]++
			})
		}
		stats.TotalRows += int64(folded)
		// The schedule, its lists cut at the counted sizes from one buffer.
		// One fold message goes per non-empty (sender, owner) list.
		next := make([]int32, len(rows)+folded)
		take := func(n int) (s []int32) {
			s, next = next[:0:n], next[n:]
			return s
		}
		own, fold := make([][]int32, p.P), make([][][]int32, p.P)
		for a := range fold {
			own[a] = take(cnt[a*p.P+a])
			fold[a] = make([][]int32, p.P)
			for b := range fold[a] {
				if n := cnt[a*p.P+b]; b != a && n > 0 {
					fold[a][b] = take(n)
					stats.Messages++
				}
			}
		}
		// Rows are visited in ascending order, so every list ascends.
		for i, q := range owners.Owner[m] {
			if q < 0 {
				continue
			}
			own[q] = append(own[q], int32(i))
			touch.each(i, func(proc int32) {
				if proc != q {
					fold[proc][q] = append(fold[proc][q], int32(i))
				}
			})
		}
		owners.own[m], owners.fold[m], owners.self[m] = own, fold, own
	}
	for _, l := range procLoad {
		if l > stats.MaxProcRows {
			stats.MaxProcRows = l
		}
	}
	return owners, stats
}

// rowInfo pairs a mode row with its process connectivity.
type rowInfo struct {
	idx  tensor.Index
	conn int
}

// procSets holds one mode's per-row process sets densely, indexed by row:
// row i's set is the bitmask words[i·w : (i+1)·w] over processes 0..P-1.
type procSets struct {
	w     int
	words []uint64
}

func newProcSets(rows, procs int) procSets {
	w := (procs + 63) / 64
	return procSets{w: w, words: make([]uint64, rows*w)}
}

// add puts proc into row i's set.
func (s procSets) add(i int, proc int32) {
	s.words[i*s.w+int(proc)/64] |= 1 << (uint(proc) % 64)
}

// count returns the size of row i's set: the row's connectivity.
func (s procSets) count(i int) int {
	n := 0
	for _, w := range s.words[i*s.w : (i+1)*s.w] {
		n += bits.OnesCount64(w)
	}
	return n
}

// each calls f on every process in row i's set, in ascending order.
func (s procSets) each(i int, f func(proc int32)) {
	for wi, w := range s.words[i*s.w : (i+1)*s.w] {
		for ; w != 0; w &= w - 1 {
			f(int32(wi*64 + bits.TrailingZeros64(w)))
		}
	}
}
